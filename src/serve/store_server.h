// pnn::serve::StoreServer — open-from-dir serving: recovers (or
// initializes) a durable store at a directory and serves it over the RPC
// protocol. This is the production startup path: a process restart is
// Open() + Start(), and every Insert/Erase acked over the wire was
// fsync'd to the store's op log first (store::Store's write-ahead
// contract), so the served live set survives the next crash.

#ifndef PNN_SERVE_STORE_SERVER_H_
#define PNN_SERVE_STORE_SERVER_H_

#include <memory>
#include <string>

#include "src/serve/server.h"
#include "src/store/store.h"

namespace pnn {
namespace serve {

class StoreServer {
 public:
  struct Options {
    /// Must be 0 (checked by Open): the store is one durable
    /// DynamicEngine. Kept only for source compatibility with callers
    /// that still set it; no sharded mode exists.
    uint32_t num_shards = 0;
    store::Store::Options store;
    ServerOptions server;
  };

  /// Recovers or initializes the store, then builds the server over it
  /// (not yet started). Aborts on disk corruption, like store::Open, and
  /// when options.num_shards is not 0.
  static std::unique_ptr<StoreServer> Open(const std::string& dir,
                                           Options options);

  ~StoreServer();

  bool Start() { return server_->Start(); }
  void Stop() { server_->Stop(); }
  uint16_t port() const { return server_->port(); }

  Server& server() { return *server_; }
  /// The backing store.
  store::Store* store() { return store_.get(); }

 private:
  StoreServer() = default;

  std::unique_ptr<store::Store> store_;
  /// Declared last: the server stops before the store it reads closes.
  std::unique_ptr<Server> server_;
};

}  // namespace serve
}  // namespace pnn

#endif  // PNN_SERVE_STORE_SERVER_H_
