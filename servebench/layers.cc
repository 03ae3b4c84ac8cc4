#include "servebench/layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <unordered_map>

#include "src/api/engine_ref.h"
#include "src/exec/batch_engine.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace servebench {

namespace {

using pnn::api::QueryKind;

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double Pct(std::vector<double> v, double pct) { return pnn::Percentile(&v, pct); }

}  // namespace

CachePoller::CachePoller(const pnn::dyn::DynamicEngine& engine)
    : engine_(engine), thread_([this] { Poll(); }) {}

CachePoller::~CachePoller() {
  if (thread_.joinable()) Finish();
}

void CachePoller::Poll() {
  std::shared_ptr<pnn::dyn::AnswerCache> last;
  bool first = true;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::shared_ptr<const pnn::dyn::Snapshot> snap = engine_.snapshot();
    if (snap->answers != last) {
      last = snap->answers;
      // The snapshot current at the start may already hold traffic; later
      // ones are published empty during the phase.
      if (last != nullptr) {
        held_.push_back({last, first ? last->stats() : pnn::dyn::AnswerCache::Stats{}});
      }
      if (held_.size() > kHeld) {
        Fold(held_.front());
        held_.pop_front();
      }
    }
    first = false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void CachePoller::Fold(const Seen& s) {
  pnn::dyn::AnswerCache::Stats now = s.cache->stats();
  hits_ += now.hits - s.base.hits;
  misses_ += now.misses - s.base.misses;
}

double CachePoller::Finish() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  for (const Seen& s : held_) Fold(s);
  held_.clear();
  return hits_ + misses_ > 0 ? static_cast<double>(hits_) / static_cast<double>(hits_ + misses_)
                             : 0.0;
}

void ReplayQueryLayers(const Workload& w, pnn::store::Store* store, const Reference& ref,
                       const std::vector<QueryRequest>& queries,
                       const std::vector<double>& server_us, double coalescing, Report* rep) {
  const size_t n = queries.size();
  PNN_CHECK_MSG(n > 0 && server_us.size() == n, "no served queries to replay");
  pnn::api::EngineRef engine_ref(store);

  // exec: the server's dispatch primitive, at its thread count and at one.
  size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(coalescing)));
  auto exec_seconds = [&](size_t threads) {
    pnn::exec::BatchOptions o;
    o.num_threads = threads;
    pnn::exec::BatchEngine exec(engine_ref, o);
    pnn::Timer t;
    for (size_t i = 0; i < n; i += batch) {
      std::vector<QueryRequest> part(queries.begin() + i,
                                     queries.begin() + std::min(n, i + batch));
      exec.RequestBatch(part);
    }
    return t.Seconds();
  };
  // The server's BatchEngine runs with the default num_threads = 0.
  const size_t server_threads = std::max(1u, std::thread::hardware_concurrency());
  double exec_n = exec_seconds(server_threads);
  double exec_1 = exec_seconds(1);
  double exec_us_1 = exec_1 * 1e6 / n;

  // api: one pin, one request at a time.
  std::vector<double> api_us(n);
  pnn::api::EngineRef::Pin pin = engine_ref.Capture();
  for (size_t i = 0; i < n; ++i) {
    pnn::Timer t;
    pnn::api::QueryResponse r = engine_ref.Call(queries[i], pin);
    api_us[i] = t.Micros();
    PNN_CHECK_MSG(r.ok(), "api replay failed");
  }

  // dyn: the pinned-snapshot query calls EngineRef dispatches to.
  const pnn::dyn::DynamicEngine& dyn = store->engine();
  std::shared_ptr<const pnn::dyn::Snapshot> snap = dyn.snapshot();
  std::vector<double> dyn_us(n), core_us(n);
  std::vector<pnn::dyn::Id> ids;
  std::vector<pnn::Quantification> quants;
  for (size_t i = 0; i < n; ++i) {
    const QueryRequest& q = queries[i];
    pnn::Timer t;
    if (q.kind == QueryKind::kNonzeroNN) {
      dyn.NonzeroNNInto(*snap, q.q, &ids);
    } else if (q.kind == QueryKind::kQuantify) {
      dyn.QuantifyInto(*snap, q.q, q.eps, &quants);
    } else {
      quants = dyn.ThresholdNN(*snap, q.q, q.tau, q.eps);
    }
    dyn_us[i] = t.Micros();
  }

  // core: the static paper Engine over the same live set.
  for (size_t i = 0; i < n; ++i) {
    const QueryRequest& q = queries[i];
    pnn::Timer t;
    if (q.kind == QueryKind::kNonzeroNN) {
      ids = ref.engine->NonzeroNN(q.q);
    } else if (q.kind == QueryKind::kQuantify) {
      quants = ref.engine->Quantify(q.q, q.eps);
    } else {
      quants = ref.engine->ThresholdNN(q.q, q.tau, q.eps);
    }
    core_us[i] = t.Micros();
  }

  rep->Add("exec.batch_us_per_req", exec_n * 1e6 / n, "us");
  rep->Add("exec.speedup", exec_1 / exec_n, "x");
  rep->Add("api.call_p50_us", Pct(api_us, 50), "us");
  rep->Add("api.call_p99_us", Pct(api_us, 99), "us");
  rep->Add("api.contention", Mean(server_us) / Mean(api_us), "x");
  rep->Add("dyn.query_p50_us", Pct(dyn_us, 50), "us");
  rep->Add("dyn.partition_overhead", Mean(dyn_us) / Mean(core_us), "x");
  rep->Add("dyn.buckets", static_cast<double>(dyn.num_buckets()), "count");
  rep->Add("dyn.tail_live", static_cast<double>(dyn.tail_size()), "count");
  rep->Add("dyn.dead", static_cast<double>(dyn.dead_size()), "count");
  rep->Add("core.static_query_p50_us", Pct(core_us, 50), "us");
  rep->Add("core.mc_rounds",
           static_cast<double>(pnn::dyn::McRoundsForSnapshot(*snap, dyn.options().engine, w.eps)),
           "count");
  // Self time: a layer's mean per-request time minus the layer below it on
  // the same requests (serve's is reported by the caller, from the wire).
  rep->Add("self.exec_us", exec_us_1 - Mean(api_us), "us");
  rep->Add("self.api_us", Mean(api_us) - Mean(dyn_us), "us");
  rep->Add("self.dyn_us", Mean(dyn_us) - Mean(core_us), "us");
  rep->Add("self.core_us", Mean(core_us), "us");
  rep->Add("replay.requests", static_cast<double>(n), "count", false);
}

void ReplayStore(const Workload& w, const pnn::UncertainSet& initial, const OpStream& ops,
                 const std::string& dir, Report* rep) {
  WriteLoadedStore(initial, dir);
  pnn::exec::ThreadPool pool(kMaintenanceThreads);
  auto store = pnn::store::Store::Open(dir, StoreOptions(&pool));

  std::unordered_map<int, pnn::dyn::Id> actual;  // Generated -> assigned id.
  std::vector<double> lat;
  pnn::store::Stats before = store->stats();
  double wchar_before = WcharBytes();
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryRequest& req = ops.requests[i];
    int gen = ops.gen_ids[i];
    if (req.kind == QueryKind::kInsert) {
      pnn::Timer t;
      auto id = store->Insert(*req.point);
      lat.push_back(t.Micros());
      PNN_CHECK_MSG(id.ok(), "isolated insert failed");
      actual[gen] = id.value();
    } else if (req.kind == QueryKind::kErase) {
      pnn::dyn::Id id = gen;
      if (gen >= w.points) {
        auto it = actual.find(gen);
        if (it == actual.end()) continue;  // Inserted before this replay's window.
        id = it->second;
      }
      pnn::Timer t;
      auto erased = store->Erase(id);
      lat.push_back(t.Micros());
      PNN_CHECK_MSG(erased.ok(), "isolated erase failed");
    }
  }
  double wchar = WcharBytes() - wchar_before;
  pnn::store::Stats after = store->stats();
  PNN_CHECK_MSG(!lat.empty(), "no updates to replay");
  double updates = static_cast<double>(lat.size());
  rep->Add("store.update_p50_us", Pct(lat, 50), "us");
  rep->Add("store.update_p99_us", Pct(lat, 99), "us");
  rep->Add("store.syncs_per_update", (after.log_syncs - before.log_syncs) / updates, "count");
  rep->Add("store.checkpoints_per_kop", (after.checkpoints - before.checkpoints) * 1e3 / updates,
           "count");
  rep->Add("store.segments_per_kop",
           (after.segments_written - before.segments_written) * 1e3 / updates, "count");
  rep->Add("store.wchar_per_update", wchar / updates, "B");
  rep->Add("store.updates", updates, "count", false);
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace servebench
