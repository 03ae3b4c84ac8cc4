#include "src/exec/batch_engine.h"

#include <algorithm>
#include <thread>

#include "src/dyn/answer_cache.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace pnn {
namespace exec {

namespace {

// The answer cache a pinned query run will consult: the dynamic snapshot's
// (null for static backends or when caching is disabled).
const dyn::AnswerCache* PinCache(const api::EngineRef::Pin& pin) {
  return pin.snap != nullptr ? pin.snap->answers.get() : nullptr;
}

dyn::AnswerCache::Stats PinCacheStats(const api::EngineRef::Pin& pin) {
  const dyn::AnswerCache* cache = PinCache(pin);
  return cache != nullptr ? cache->stats() : dyn::AnswerCache::Stats{};
}

void AccumulateCacheDelta(const api::EngineRef::Pin& pin,
                          const dyn::AnswerCache::Stats& before, BatchStats* stats) {
  dyn::AnswerCache::Stats after = PinCacheStats(pin);
  stats->answer_cache_hits += after.hits - before.hits;
  stats->answer_cache_misses += after.misses - before.misses;
}

}  // namespace

api::QueryRequest MixedOp::ToRequest(std::optional<double> eps) const {
  switch (kind) {
    case Kind::kInsert:
      return api::QueryRequest::Insert(*point);
    case Kind::kErase:
      return api::QueryRequest::Erase(id);
    case Kind::kNonzeroNN:
      return api::QueryRequest::NonzeroNN(q);
    case Kind::kQuantify:
      return api::QueryRequest::Quantify(q, eps);
    case Kind::kThresholdNN:
      return api::QueryRequest::ThresholdNN(q, tau, eps);
  }
  return api::QueryRequest::NonzeroNN(q);
}

BatchEngine::BatchEngine(api::EngineRef ref, BatchOptions options)
    : ref_(ref), options_(options) {
  PNN_CHECK_MSG(ref_.valid(), "BatchEngine needs an engine");
  size_t threads = options_.num_threads > 0
                       ? options_.num_threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  // The calling thread always participates, so a pool is only needed for
  // the extra threads beyond it.
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

BatchEngine::BatchEngine(const Engine* engine, BatchOptions options)
    : BatchEngine(api::EngineRef(engine), options) {}

BatchEngine::BatchEngine(dyn::DynamicEngine* engine, BatchOptions options)
    : BatchEngine(api::EngineRef(engine), options) {}

const Engine& BatchEngine::engine() const {
  PNN_CHECK_MSG(ref_.static_engine() != nullptr,
                "engine() needs a static-Engine backend");
  return *ref_.static_engine();
}

dyn::DynamicEngine& BatchEngine::dynamic_engine() const {
  PNN_CHECK_MSG(ref_.dynamic_engine() != nullptr,
                "dynamic_engine() needs a DynamicEngine backend");
  return *ref_.dynamic_engine();
}

template <typename T, typename Fn>
BatchResult<T> BatchEngine::Run(size_t n, const Fn& answer_one) const {
  BatchResult<T> out;
  out.values.resize(n);
  std::vector<double> latencies(n, 0.0);
  Timer wall;
  auto one = [&](size_t i) {
    Timer t;
    out.values[i] = answer_one(i);
    latencies[i] = t.Micros();
  };
  bool parallel = pool_ && n >= options_.min_parallel_batch;
  size_t active = 1;
  if (parallel) {
    active = pool_->ParallelFor(n, one);
  } else {
    for (size_t i = 0; i < n; ++i) one(i);
  }
  out.stats.num_queries = n;
  out.stats.threads = parallel ? num_threads() : 1;
  out.stats.threads_active = n > 0 ? active : 0;
  out.stats.wall_seconds = wall.Seconds();
  out.stats.queries_per_sec =
      out.stats.wall_seconds > 0 ? static_cast<double>(n) / out.stats.wall_seconds : 0.0;
  out.stats.p50_micros = Percentile(&latencies, 50.0);
  out.stats.p99_micros = Percentile(&latencies, 99.0);
  return out;
}

void BatchEngine::CountPlans(std::optional<double> eps, size_t n,
                             BatchStats* stats) const {
  // The plan rule is query-independent (it depends on eps and the point
  // set only), so a run of n queries shares one plan. Accumulating (rather
  // than assigning) lets mixed streams sample the rule once per query run.
  if (ref_.PlanForQuantify(eps) == QuantifyPlan::kSpiral) {
    stats->spiral_plans += n;
  } else {
    stats->monte_carlo_plans += n;
  }
}

void BatchEngine::FillPlanStats(const std::vector<api::QueryRequest>& requests,
                                size_t begin, size_t end, BatchStats* stats) const {
  // Requests in one run usually share an eps; memoize the (cheap but not
  // free) plan-rule evaluation per distinct eps.
  std::optional<double> last_eps;
  bool have_last = false;
  size_t pending = 0;
  for (size_t i = begin; i < end; ++i) {
    if (!requests[i].is_quantify_like()) continue;
    if (api::Validate(requests[i]) != api::StatusCode::kOk) continue;
    if (!have_last || requests[i].eps != last_eps) {
      if (pending > 0) CountPlans(last_eps, pending, stats);
      last_eps = requests[i].eps;
      have_last = true;
      pending = 0;
    }
    ++pending;
  }
  if (pending > 0) CountPlans(last_eps, pending, stats);
}

void BatchEngine::PrewarmForRange(const std::vector<api::QueryRequest>& requests,
                                  size_t begin, size_t end) const {
  // Build the Monte-Carlo structures outside the fan-out, once per
  // distinct eps the run quantifies at (almost always one).
  std::vector<std::optional<double>> seen;
  for (size_t i = begin; i < end; ++i) {
    if (!requests[i].is_quantify_like()) continue;
    // Invalid requests (e.g. out-of-range eps) answer kInvalidArgument at
    // dispatch; prewarming them would abort inside the engine.
    if (api::Validate(requests[i]) != api::StatusCode::kOk) continue;
    if (std::find(seen.begin(), seen.end(), requests[i].eps) != seen.end()) continue;
    seen.push_back(requests[i].eps);
    ref_.Prewarm(requests[i].eps);
  }
}

BatchResult<std::vector<int>> BatchEngine::NonzeroNNBatch(
    const std::vector<Point2>& queries) const {
  // One backend pin per batch: capturing (and cache-validating) per query
  // is wasted work when the whole batch runs against one live set, and a
  // pinned view keeps the batch consistent under concurrent maintenance
  // (which preserves answers bit-for-bit anyway).
  api::EngineRef::Pin pin = ref_.Capture();
  dyn::AnswerCache::Stats before = PinCacheStats(pin);
  auto out = Run<std::vector<int>>(queries.size(), [&](size_t i) {
    api::QueryResponse r = ref_.Call(api::QueryRequest::NonzeroNN(queries[i]), pin);
    return std::move(r.ids);
  });
  AccumulateCacheDelta(pin, before, &out.stats);
  return out;
}

BatchResult<std::vector<Quantification>> BatchEngine::QuantifyBatch(
    const std::vector<Point2>& queries, std::optional<double> eps) const {
  ref_.Prewarm(eps);
  api::EngineRef::Pin pin = ref_.Capture();
  dyn::AnswerCache::Stats before = PinCacheStats(pin);
  auto out = Run<std::vector<Quantification>>(queries.size(), [&](size_t i) {
    api::QueryResponse r = ref_.Call(api::QueryRequest::Quantify(queries[i], eps), pin);
    return std::move(r.quants);
  });
  AccumulateCacheDelta(pin, before, &out.stats);
  CountPlans(eps, queries.size(), &out.stats);
  return out;
}

BatchResult<std::vector<Quantification>> BatchEngine::ThresholdNNBatch(
    const std::vector<Point2>& queries, double tau, std::optional<double> eps) const {
  ref_.Prewarm(eps);
  api::EngineRef::Pin pin = ref_.Capture();
  dyn::AnswerCache::Stats before = PinCacheStats(pin);
  auto out = Run<std::vector<Quantification>>(queries.size(), [&](size_t i) {
    api::QueryResponse r =
        ref_.Call(api::QueryRequest::ThresholdNN(queries[i], tau, eps), pin);
    return std::move(r.quants);
  });
  AccumulateCacheDelta(pin, before, &out.stats);
  CountPlans(eps, queries.size(), &out.stats);
  return out;
}

BatchResult<api::QueryResponse> BatchEngine::RequestBatch(
    const std::vector<api::QueryRequest>& requests) const {
  size_t n = requests.size();
  BatchResult<api::QueryResponse> out;
  out.values.resize(n);
  std::vector<double> query_lat, update_lat;
  bool parallel_used = false;
  size_t active = 0;  // Most threads any query run used.
  Timer wall;

  // The pin each query run answers against: captured once at the start of
  // the run (updates between runs invalidate it), threaded through every
  // query in the run instead of re-capturing per query.
  api::EngineRef::Pin run_pin;
  auto answer_query = [&](size_t i, double* lat) {
    Timer t;
    out.values[i] = ref_.Call(requests[i], run_pin);
    *lat = t.Micros();
    out.values[i].server_micros = *lat;
  };

  size_t i = 0;
  while (i < n) {
    if (requests[i].is_update()) {
      Timer t;
      out.values[i] = ref_.Call(requests[i]);
      double micros = t.Micros();
      out.values[i].server_micros = micros;
      update_lat.push_back(micros);
      ++i;
      continue;
    }
    // Maximal run of consecutive queries: fan out when it pays.
    size_t j = i;
    while (j < n && !requests[j].is_update()) ++j;
    PrewarmForRange(requests, i, j);
    // Plan stats are sampled per run: interleaved updates can flip the
    // spiral-vs-Monte-Carlo rule mid-stream.
    FillPlanStats(requests, i, j, &out.stats);
    run_pin = ref_.Capture();
    dyn::AnswerCache::Stats cache_before = PinCacheStats(run_pin);
    size_t run = j - i;
    size_t lat_base = query_lat.size();
    query_lat.resize(lat_base + run);
    if (pool_ && run >= options_.min_parallel_batch) {
      size_t used = pool_->ParallelFor(
          run, [&](size_t k) { answer_query(i + k, &query_lat[lat_base + k]); });
      active = std::max(active, used);
      parallel_used = true;
    } else {
      for (size_t k = 0; k < run; ++k) answer_query(i + k, &query_lat[lat_base + k]);
      active = std::max<size_t>(active, 1);
    }
    AccumulateCacheDelta(run_pin, cache_before, &out.stats);
    i = j;
  }

  BatchStats& s = out.stats;
  s.num_queries = query_lat.size();
  s.num_updates = update_lat.size();
  s.threads = parallel_used ? num_threads() : 1;
  s.threads_active = active;
  s.wall_seconds = wall.Seconds();
  s.queries_per_sec = s.wall_seconds > 0
                          ? static_cast<double>(s.num_queries) / s.wall_seconds
                          : 0.0;
  s.p50_micros = Percentile(&query_lat, 50.0);
  s.p99_micros = Percentile(&query_lat, 99.0);
  s.update_p50_micros = Percentile(&update_lat, 50.0);
  s.update_p99_micros = Percentile(&update_lat, 99.0);
  return out;
}

BatchResult<MixedResult> BatchEngine::MixedBatch(const std::vector<MixedOp>& ops,
                                                 std::optional<double> eps) const {
  PNN_CHECK_MSG(ref_.supports_updates(),
                "MixedBatch needs a DynamicEngine or Store backend");
  std::vector<api::QueryRequest> requests;
  requests.reserve(ops.size());
  for (const MixedOp& op : ops) requests.push_back(op.ToRequest(eps));
  BatchResult<api::QueryResponse> api_out = RequestBatch(requests);

  BatchResult<MixedResult> out;
  out.stats = api_out.stats;
  out.values.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    api::QueryResponse& r = api_out.values[i];
    MixedResult& m = out.values[i];
    switch (ops[i].kind) {
      case MixedOp::Kind::kInsert:
      case MixedOp::Kind::kErase:
        m.id = r.id;
        break;
      case MixedOp::Kind::kNonzeroNN:
        m.nonzero = std::move(r.ids);
        break;
      case MixedOp::Kind::kQuantify:
      case MixedOp::Kind::kThresholdNN:
        m.quant = std::move(r.quants);
        break;
    }
  }
  return out;
}

}  // namespace exec
}  // namespace pnn
