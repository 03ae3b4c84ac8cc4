// Load generators over serve::Client, one connection each.
// RunPhase is open loop: requests are due on a fixed schedule (rate given
// by the caller, never by measured capacity) and each latency is timed from
// its due time, so a stall also charges the requests that queued behind it;
// one sender and one receiver thread leave most of the host's cores to the
// server. RunClosed is a closed loop on the calling thread that keeps a
// fixed number of requests outstanding.

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "servebench/workload.h"
#include "src/api/query.h"
#include "src/serve/server.h"

namespace servebench {

/// Generated id -> id the server acknowledged. An Erase in an OpStream
/// names a generated id; the sender waits for that insert's answer and
/// sends the acknowledged id (a shed insert shifts every later server id),
/// or skips the erase when the insert was refused.
class IdMap {
 public:
  static constexpr int kPending = -2;
  static constexpr int kFailed = -1;

  /// Ids below `preloaded` are the bulk load's and map to themselves.
  IdMap(size_t size, int preloaded);
  int Get(int gen) const { return ids_[static_cast<size_t>(gen)].load(std::memory_order_acquire); }
  void Set(int gen, int actual) {
    ids_[static_cast<size_t>(gen)].store(actual, std::memory_order_release);
  }

 private:
  std::unique_ptr<std::atomic<int>[]> ids_;
};

/// What happened to one request of a phase.
struct Outcome {
  int64_t due_ns = 0;    // Closed loop: the send time.
  bool update = false;   // Insert or Erase.
  int64_t send_ns = -1;  // -1: not sent (skipped erase, or transport loss).
  int64_t recv_ns = -1;  // -1: never answered.
  bool skipped = false;  // Erase whose insert was refused.
  pnn::api::StatusCode status = pnn::api::StatusCode::kOk;
  double server_us = 0;
  int resp_id = -1;      // Insert: new id; Erase: erased id or -1.
};

struct PhaseResult {
  std::string name;
  double rate = 0;  // Offered (open loop) or achieved (closed loop), 1/s.
  size_t sent = 0, ok = 0, shed = 0, deadline = 0, error = 0, lost = 0, skipped = 0;
  size_t unsent = 0;  // Send failures (also counted in lost).
  std::vector<Outcome> outcomes;                // Parallel to the stream.
  std::vector<pnn::api::QueryResponse> kept;    // First `keep` responses.
  pnn::serve::ServerStats before, after;        // Server counters around it.

  /// Microsecond series over OK responses (query vs update kinds).
  std::vector<double> query_us, update_us;  // Due time -> response.
  std::vector<double> query_rtt_us;         // Send -> response.
  std::vector<double> query_server_us;      // The response's server_micros.
  std::vector<double> late_us;              // Due -> send, every sent request.
  double drain_us = 0;  // Last due time -> last response.
  // Closed loop: CPU time the process spent outside the load generator's
  // thread during the window and its drain (the server's threads), s.
  double server_cpu_s = 0;

  size_t failed() const { return shed + deadline + error + lost; }
  size_t attempted() const { return sent + unsent; }
  double fail_ratio() const {
    return attempted() > 0 ? static_cast<double>(failed()) / static_cast<double>(attempted())
                           : 0.0;
  }
  double coalescing() const;
};

/// Runs `stream` against the server at `rate` requests/s over loopback.
/// `ids` (may be null for query-only streams) translates erase ids and
/// records acknowledged inserts. Keeps the first `keep` responses.
PhaseResult RunPhase(const std::string& name, pnn::serve::Server& server,
                     const OpStream& stream, double rate, IdMap* ids, size_t keep = 0);

/// The next request of a closed-loop phase and its generated id (as in
/// OpStream); false when the traffic is exhausted.
using Source = std::function<bool(QueryRequest* request, int* gen_id)>;

/// Runs a closed loop over one connection from the calling thread: keeps
/// `inflight` requests outstanding, sending the next one from `next` as each
/// response arrives, until `end_ns` (steady clock, ns) and then waits for
/// the outstanding answers. Latency is timed from send to response. The
/// requests sent are appended to `sent` (may be null when `next` yields no
/// updates), parallel to the result's outcomes; `ids` as in RunPhase. Keeps the first
/// `keep` responses. The result's rate counts the OK answers received by
/// `end_ns`, per second since the first send.
PhaseResult RunClosed(const std::string& name, pnn::serve::Server& server, size_t inflight,
                      int64_t end_ns, const Source& next, IdMap* ids, OpStream* sent,
                      size_t keep = 0);

/// Sets the CPU affinity of every thread of this process, the server's
/// included: all on one CPU, the (`cpu` mod count)-th of the CPUs the
/// process started with, or back on all of them (`cpu` < 0). Threads
/// created later inherit their creator's affinity.
void PinProcess(int cpu);

/// Steady-clock time in ns, the clock of RunClosed's `end_ns`.
int64_t NowNs();

/// One summary line: sent/ok/shed/deadline/error/lost, lateness and
/// latency percentiles, on stdout as a comment.
void PrintPhase(const PhaseResult& r);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
