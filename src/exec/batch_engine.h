// Parallel batch query executor over any pnn backend — the in-process
// equivalent of a pod-style request fan-out: one shared read-only set of
// structures (kd-trees, spiral quantifier, Monte-Carlo instantiations),
// many queries answered concurrently on a work-stealing pool.
//
// Since the api redesign the executor speaks api::QueryRequest /
// api::QueryResponse through one api::EngineRef instead of mirroring each
// backend's method quintet: RequestBatch() is the primitive (the serving
// layer's network batches land there), and the typed batch methods plus
// MixedBatch are thin shims over it with their historical signatures and
// bit-identical outputs.
//
// Determinism contract: every batch method returns results bit-identical
// to answering the queries one by one on a single thread, at any thread
// count. This holds because (a) all structures are prewarmed before the
// fan-out and queried through const, side-effect-free paths, and (b) the
// Monte-Carlo structure draws round r's samples from streams keyed by
// (seed, r, point) (see util/rng.h), so it is the same structure no
// matter which thread triggers its construction.
//
// One degenerate caveat: on inputs where a query is EXACTLY equidistant
// (to the last double bit) from two sampled locations, the underlying
// Delaunay walk may break the tie by walk position, which depends on a
// scheduling-sensitive locality hint. Such ties have measure zero for the
// randomly sampled instantiations the Monte-Carlo path queries.

#ifndef PNN_EXEC_BATCH_ENGINE_H_
#define PNN_EXEC_BATCH_ENGINE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace exec {

struct BatchOptions {
  /// Total concurrency, counting the calling thread (which participates in
  /// every batch). 1 = fully sequential; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Batches smaller than this run inline on the calling thread, skipping
  /// fan-out overhead.
  size_t min_parallel_batch = 32;
};

/// Per-batch execution statistics.
struct BatchStats {
  size_t num_queries = 0;
  size_t threads = 0;          // Threads deployed (1 when run inline).
  /// Threads that answered at least one query — at most `threads`, and
  /// scheduling-dependent: a tiny batch may finish on the caller before a
  /// worker wakes. For a mixed batch, the most any query run used.
  size_t threads_active = 0;
  double wall_seconds = 0.0;
  double queries_per_sec = 0.0;
  /// Plan mix for quantification batches (0/0 for NonzeroNN batches).
  size_t spiral_plans = 0;
  size_t monte_carlo_plans = 0;
  /// Per-query latency percentiles, microseconds.
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  /// Update ops and their latency percentiles (mixed batches only; 0/0/0
  /// for pure query batches).
  size_t num_updates = 0;
  double update_p50_micros = 0.0;
  double update_p99_micros = 0.0;
  /// dyn::AnswerCache traffic attributable to this batch: counter deltas
  /// on the pinned snapshot/view's cache across each query run. Duplicate
  /// requests within a batch dedup here — the first evaluation populates
  /// the pinned cache and the repeats hit it. 0/0 for backends without a
  /// cache (static Engine, caches disabled) or when another thread shares
  /// the same snapshot concurrently the split is approximate.
  size_t answer_cache_hits = 0;
  size_t answer_cache_misses = 0;
};

/// A batch answer: `values[i]` answers `queries[i]`, plus the stats.
template <typename T>
struct BatchResult {
  std::vector<T> values;
  BatchStats stats;
};

/// One operation of a mixed update/query stream (dynamic and store
/// backends). Retained as a convenience façade; it converts 1:1 into
/// api::QueryRequest (ToRequest) and MixedBatch routes through
/// RequestBatch.
struct MixedOp {
  enum class Kind { kInsert, kErase, kNonzeroNN, kQuantify, kThresholdNN };

  static MixedOp Insert(UncertainPoint p) {
    MixedOp op;
    op.kind = Kind::kInsert;
    op.point = std::move(p);
    return op;
  }
  static MixedOp Erase(dyn::Id id) {
    MixedOp op;
    op.kind = Kind::kErase;
    op.id = id;
    return op;
  }
  static MixedOp NonzeroNN(Point2 q) {
    MixedOp op;
    op.kind = Kind::kNonzeroNN;
    op.q = q;
    return op;
  }
  static MixedOp Quantify(Point2 q) {
    MixedOp op;
    op.kind = Kind::kQuantify;
    op.q = q;
    return op;
  }
  static MixedOp ThresholdNN(Point2 q, double tau) {
    MixedOp op;
    op.kind = Kind::kThresholdNN;
    op.q = q;
    op.tau = tau;
    return op;
  }

  bool is_update() const { return kind == Kind::kInsert || kind == Kind::kErase; }

  /// The api::QueryRequest this op denotes (`eps` applies to the
  /// quantification kinds, matching MixedBatch's batch-level eps).
  api::QueryRequest ToRequest(std::optional<double> eps) const;

  Kind kind = Kind::kNonzeroNN;
  std::optional<UncertainPoint> point;  // kInsert.
  dyn::Id id = -1;                      // kErase.
  Point2 q{0, 0};                       // Query kinds.
  double tau = 0.0;                     // kThresholdNN.
};

/// The answer to one MixedOp (only the member matching the op kind is set).
struct MixedResult {
  dyn::Id id = -1;                    // kInsert: new id; kErase: erased id or -1.
  std::vector<dyn::Id> nonzero;       // kNonzeroNN.
  std::vector<Quantification> quant;  // kQuantify / kThresholdNN.
};

/// Answers vectors of queries in parallel against a shared backend behind
/// an api::EngineRef. The backend must outlive the BatchEngine; the
/// BatchEngine itself is thread-compatible (use one per batching thread, or
/// serialize calls).
class BatchEngine {
 public:
  /// Any backend through the type-erased handle (the serving layer's
  /// constructor).
  explicit BatchEngine(api::EngineRef ref, BatchOptions options = {});

  explicit BatchEngine(const Engine* engine, BatchOptions options = {});

  /// Dynamic backend: query batches fan out exactly like the static
  /// backend (the engine's snapshots make concurrent queries safe), and
  /// MixedBatch() becomes available for interleaved update/query streams.
  explicit BatchEngine(dyn::DynamicEngine* engine, BatchOptions options = {});

  /// The primitive every other batch method shims onto: applies a mixed
  /// stream of api::QueryRequests in order. Updates run sequentially at
  /// their stream positions; maximal runs of consecutive queries pin the
  /// backend state once (EngineRef::Capture) and fan out over the pool.
  /// Results are identical to a fully sequential replay at any thread
  /// count; per-request errors come back as response statuses, never
  /// aborts. Deadlines are NOT enforced here — serve::Server sheds expired
  /// requests before batches reach this point.
  BatchResult<api::QueryResponse> RequestBatch(
      const std::vector<api::QueryRequest>& requests) const;

  /// NN!=0(q) for every query (Lemma 2.1 semantics).
  BatchResult<std::vector<int>> NonzeroNNBatch(const std::vector<Point2>& queries) const;

  /// Quantification estimates within additive eps for every query
  /// (spiral or Monte Carlo per the engine's plan rule).
  BatchResult<std::vector<Quantification>> QuantifyBatch(
      const std::vector<Point2>& queries,
      std::optional<double> eps = std::nullopt) const;

  /// Entries with pi_i(q) > tau for every query ([DYM+05] semantics).
  BatchResult<std::vector<Quantification>> ThresholdNNBatch(
      const std::vector<Point2>& queries, double tau,
      std::optional<double> eps = std::nullopt) const;

  /// Applies a mixed update/query stream in order (dynamic and store
  /// backends); see RequestBatch, which this converts into.
  BatchResult<MixedResult> MixedBatch(const std::vector<MixedOp>& ops,
                                      std::optional<double> eps = std::nullopt) const;

  /// The type-erased backend handle.
  const api::EngineRef& ref() const { return ref_; }
  /// The static backend (aborts unless constructed over an Engine).
  const Engine& engine() const;
  /// The dynamic backend (aborts unless constructed over a DynamicEngine).
  dyn::DynamicEngine& dynamic_engine() const;
  size_t num_threads() const { return pool_ ? pool_->size() + 1 : 1; }

 private:
  template <typename T, typename Fn>
  BatchResult<T> Run(size_t n, const Fn& answer_one) const;
  /// Counts n queries against the plan rule at this eps (typed batches:
  /// one eps for the whole batch).
  void CountPlans(std::optional<double> eps, size_t n, BatchStats* stats) const;
  /// Counts request i's plan (spiral vs Monte Carlo at its eps) into
  /// `stats` for every quantification-kind request in [begin, end).
  void FillPlanStats(const std::vector<api::QueryRequest>& requests, size_t begin,
                     size_t end, BatchStats* stats) const;
  /// Prewarms the backend for every distinct eps the quantification
  /// requests in [begin, end) use, so the fan-out never contends on lazy
  /// structure construction.
  void PrewarmForRange(const std::vector<api::QueryRequest>& requests, size_t begin,
                       size_t end) const;

  api::EngineRef ref_;
  BatchOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // Null when num_threads == 1.
};

}  // namespace exec
}  // namespace pnn

#endif  // PNN_EXEC_BATCH_ENGINE_H_
