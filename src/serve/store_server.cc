#include "src/serve/store_server.h"

#include <utility>

#include "src/util/check.h"

namespace pnn {
namespace serve {

std::unique_ptr<StoreServer> StoreServer::Open(const std::string& dir,
                                               Options options) {
  PNN_CHECK_MSG(options.num_shards == 0,
                "StoreServer::Options::num_shards must be 0 (no sharded mode)");
  std::unique_ptr<StoreServer> s(new StoreServer());
  s->store_ = store::Store::Open(dir, std::move(options.store));
  s->server_ = std::make_unique<Server>(api::EngineRef(s->store_.get()), options.server);
  return s;
}

StoreServer::~StoreServer() { server_->Stop(); }

}  // namespace serve
}  // namespace pnn
