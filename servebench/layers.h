// The traced run's per-layer measurements. Each replays the requests the
// server answered through one module's public entry point, timed from the
// benchmark (no instrumentation inside src/):
//   exec  BatchEngine::RequestBatch, in batches of the observed coalescing
//   api   EngineRef::Call on one Capture()
//   dyn   DynamicEngine's pinned-snapshot query calls
//   core  the static reference Engine
//   store Store::Insert/Erase on a fresh store from the same load
// plus an answer-cache poller that runs while the traced phase is served.

#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "servebench/report.h"
#include "servebench/served.h"
#include "servebench/workload.h"
#include "src/dyn/answer_cache.h"
#include "src/dyn/dynamic_engine.h"

namespace servebench {

/// Sums dyn::AnswerCache hit/miss deltas over every snapshot the engine
/// publishes while it runs. Polls snapshot() every 200 us and holds the
/// last kHeld caches it has seen, so a superseded snapshot's late queries
/// still count; an older cache is read when it leaves that window.
class CachePoller {
 public:
  explicit CachePoller(const pnn::dyn::DynamicEngine& engine);
  ~CachePoller();
  CachePoller(const CachePoller&) = delete;
  CachePoller& operator=(const CachePoller&) = delete;

  /// Stops polling; returns hits / (hits + misses) since construction.
  double Finish();

 private:
  static constexpr size_t kHeld = 8;
  struct Seen {
    std::shared_ptr<pnn::dyn::AnswerCache> cache;
    pnn::dyn::AnswerCache::Stats base;
  };
  void Poll();
  void Fold(const Seen& s);

  const pnn::dyn::DynamicEngine& engine_;
  // Poller thread only until Finish() joins it.
  std::deque<Seen> held_;
  uint64_t hits_ = 0, misses_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Declared last: starts after the members it uses.
};

/// Replays `queries` (answered by the server with `server_us` each) through
/// exec, api, dyn and core on the stopped server's store and reports the
/// layer metrics, including each layer's self time.
void ReplayQueryLayers(const Workload& w, pnn::store::Store* store, const Reference& ref,
                       const std::vector<QueryRequest>& queries,
                       const std::vector<double>& server_us, double coalescing, Report* rep);

/// Loads a fresh store at `dir` with `initial` and applies the updates of
/// `ops` with direct Store::Insert/Erase calls, one at a time.
void ReplayStore(const Workload& w, const pnn::UncertainSet& initial, const OpStream& ops,
                 const std::string& dir, Report* rep);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
