// pnn::serve::Server — the RPC serving layer: a loopback TCP server
// answering api::QueryRequests over the length-prefixed binary protocol
// (protocol.h), backed by any engine behind an api::EngineRef (the
// intended production backend is shard::ShardedEngine).
//
// Architecture: two server threads plus the engine's own pools.
//   * IO thread — an epoll event loop owning the listen socket and every
//     connection: nonblocking reads into per-connection frame buffers,
//     strict decode, admission control, and nonblocking buffered writes.
//   * Worker thread — pops up to batch_max pending requests at a time and
//     executes them as ONE exec::BatchEngine::RequestBatch (network-level
//     request batching: concurrent clients' requests coalesce into a
//     batch that pins the backend snapshot once and fans out across the
//     batch pool). Completed responses hop back to the IO thread through
//     an eventfd.
//
// Overload and deadlines (the yt-style service discipline):
//   * Admission control: the pending queue is bounded (queue_limit); a
//     request arriving at a full queue is answered immediately with
//     kOverloaded — shed-with-status instead of queueing collapse. The
//     shed response can overtake earlier queued responses, which is why
//     responses are matched by request id, not order.
//   * Per-request deadlines: a request's deadline_micros is a budget from
//     receipt; the worker answers expired requests with
//     kDeadlineExceeded without executing them. Expired requests are
//     ALWAYS answered — never silently dropped.
//   * Protocol errors (malformed / oversized / trailing-garbage frames)
//     are answered with kInvalidArgument when a request id is still
//     parseable, then the connection is closed after the flush. A
//     mid-request disconnect just drops the connection's in-flight
//     responses; the server never crashes or leaks (tests/
//     serve_server_test.cc runs the lot under ASan and TSan).

#ifndef PNN_SERVE_SERVER_H_
#define PNN_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/exec/batch_engine.h"
#include "src/serve/protocol.h"

namespace pnn {
namespace serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port() after Start()).
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Frames whose declared payload exceeds this are rejected without
  /// buffering and the connection closed.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Admission bound: decoded requests waiting for the worker beyond this
  /// are shed with kOverloaded.
  size_t queue_limit = 1024;
  /// Requests coalesced into one BatchEngine::RequestBatch dispatch.
  size_t batch_max = 64;
  /// Execution concurrency of the dispatch (BatchEngine's pool). The
  /// default num_threads = 0 uses hardware concurrency.
  exec::BatchOptions batch;
};

/// Monotone counters since Start() (stats() returns a consistent-enough
/// snapshot of independently updated atomics).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_received = 0;   // Decoded frames admitted or shed.
  uint64_t responses_ok = 0;        // Executed with status kOk.
  uint64_t responses_error = 0;     // Executed, non-kOk (invalid args etc).
  uint64_t shed_overloaded = 0;     // Admission-control rejections.
  uint64_t deadline_exceeded = 0;   // Answered kDeadlineExceeded unexecuted.
  uint64_t protocol_errors = 0;     // Malformed or oversized frames.
  uint64_t batches_executed = 0;    // RequestBatch dispatches.
  uint64_t requests_executed = 0;   // Requests inside those dispatches.

  /// Network-level batching win: mean requests per backend dispatch.
  double coalescing_factor() const {
    return batches_executed > 0
               ? static_cast<double>(requests_executed) /
                     static_cast<double>(batches_executed)
               : 0.0;
  }
};

class Server {
 public:
  /// The backend must outlive the server. ServerOptions are validated on
  /// Start (a zero queue_limit or batch_max is bumped to 1).
  explicit Server(api::EngineRef ref, ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port, spawns the IO and worker threads. False (with
  /// no threads running) when the socket setup fails.
  bool Start();

  /// Graceful shutdown, idempotent: stop accepting, answer everything
  /// already queued, flush write buffers (bounded grace), close all
  /// connections, join both threads. The destructor calls it.
  void Stop();

  bool running() const { return running_; }
  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  ServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    FrameBuffer rx;
    std::string tx;        // Serialized responses awaiting the socket.
    size_t tx_sent = 0;    // Prefix of tx already written.
    bool want_write = false;
    bool close_after_flush = false;

    explicit Connection(uint32_t max_frame_bytes) : rx(max_frame_bytes) {}
  };

  using Clock = std::chrono::steady_clock;

  struct Pending {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    api::QueryRequest request;
    Clock::time_point deadline = Clock::time_point::max();
  };

  /// A serialized response frame headed for a connection's outbox.
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
  };

  void IoLoop();
  void WorkerLoop();
  void WakeIo();

  void AcceptReady();
  void ReadReady(uint64_t conn_id);
  void WriteReady(uint64_t conn_id);
  /// Decodes and admits every complete frame buffered on the connection.
  /// Returns false when the connection should be closed now (protocol
  /// error with nothing left to flush).
  void DrainFrames(uint64_t conn_id, Connection* conn);
  void EnqueueOrShed(uint64_t conn_id, RequestFrame frame);
  /// Appends a serialized response to the connection's outbox and flushes
  /// opportunistically. IO-thread only.
  void QueueResponse(Connection* conn, uint64_t request_id,
                     const api::QueryResponse& response);
  void FlushConnection(uint64_t conn_id, Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void DrainCompletions();
  void UpdateEpollInterest(uint64_t conn_id, Connection* conn);

  api::EngineRef ref_;
  ServerOptions options_;
  std::unique_ptr<exec::BatchEngine> batch_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker/Stop -> IO wakeups.
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Set by Stop once the worker is joined and its leftovers answered: only
  // then may the IO loop flush and exit, or it would close connections
  // before the worker's last completions are posted.
  std::atomic<bool> worker_done_{false};

  std::thread io_thread_;
  std::thread worker_thread_;

  // IO-thread state (never touched elsewhere while the loop runs):
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listen socket, 1 = wake fd.

  // Pending queue (IO -> worker):
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  // Completion queue (worker -> IO):
  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  // Stats:
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_error_{0};
  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> batches_executed_{0};
  std::atomic<uint64_t> requests_executed_{0};
};

}  // namespace serve
}  // namespace pnn

#endif  // PNN_SERVE_SERVER_H_
