// Public facade of the pnn library.
//
// pnn::Engine bundles the paper's structures behind one interface:
//   * NonzeroNN(q)            — all points with positive NN probability
//                               (near-linear index; Theorems 3.1 / 3.2)
//   * Quantify(q, eps)        — quantification probabilities within
//                               additive eps (spiral search for discrete
//                               points with modest spread, Monte Carlo
//                               otherwise; Section 4)
//   * QuantifyExact(q)        — exact (discrete) or quadrature (continuous)
//   * ThresholdNN / MostLikely — derived query modes
//   * ExpectedDistanceNN      — the [AESZ12] expected-distance semantics,
//                               for comparison
//
// For the subdivision structures themselves (V!=0, V_Pr), use
// core/v0/nonzero_voronoi.h and core/prob/vpr_diagram.h directly.

#ifndef PNN_CORE_PNN_H_
#define PNN_CORE_PNN_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/nnquery/expected_nn.h"
#include "src/core/nnquery/nn_index.h"
#include "src/core/prob/monte_carlo.h"
#include "src/core/prob/quantify.h"
#include "src/core/prob/spiral.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// Which structure Quantify() routes a query through (Section 4's two
/// regimes). Exposed so callers — notably exec::BatchEngine — can count and
/// report plan decisions without re-deriving the routing rule.
enum class QuantifyPlan {
  kSpiral,      // Spiral search (Theorem 4.7): discrete, modest spread.
  kMonteCarlo,  // Monte-Carlo structure (Theorem 4.3): everything else.
};

/// One-stop query engine over a set of uncertain points.
///
/// Thread safety: all query methods are const and safe to call from many
/// threads concurrently; the lazily-built structures (Monte Carlo,
/// expected-NN) are constructed under an internal mutex. Batch callers
/// should Prewarm() first so worker threads never contend on construction.
class Engine {
 public:
  struct Options {
    uint64_t seed = 1;
    double default_eps = 0.05;   // Quantification error when unspecified; (0,1).
    double mc_delta = 0.01;      // Monte-Carlo failure probability; (0,1).
    size_t mc_rounds_override = 0;
    /// Spiral search is preferred while rho * k * ln(rho/eps) stays below
    /// this fraction of N; beyond it Monte Carlo wins. Must be in (0,1].
    double spiral_budget_fraction = 0.5;
    /// Per-point Monte-Carlo sample streams (see
    /// MonteCarloPNN::Options::stream_ids). Empty, or one id per point.
    std::vector<uint64_t> mc_stream_ids;
    /// When set, every structure build fans out across this pool: the
    /// constructor's kd builds recurse per-subtree (KdBuildOptions), the
    /// lazy Monte-Carlo build parallelizes per round, and the expected-NN
    /// precomputation per point. Results are bit-identical to the serial
    /// build at any pool size (tests/build_determinism_test.cc). The pool
    /// must outlive the engine. Queries are unaffected.
    exec::ThreadPool* build_pool = nullptr;
    /// Subtree size at or below which a pooled kd build stops forking
    /// (KdBuildOptions::parallel_cutoff).
    int build_parallel_cutoff = 4096;
    /// Leaf capacity of every kd build (KdBuildOptions::leaf_size). Wider
    /// leaves give the SIMD leaf scans lane-filling rows at the cost of
    /// pruning depth; the default is the bench_leaf_width sweep's winner
    /// (docs/simd.md). Answers are identical at any width. Must be >= 1.
    int kd_leaf_size = KdBuildOptions().leaf_size;
  };

  /// Construction validates Options (aborts with a message on default_eps
  /// or mc_delta outside (0,1), spiral_budget_fraction outside (0,1], or a
  /// mis-sized mc_stream_ids) instead of producing nonsense plans later.
  explicit Engine(UncertainSet points) : Engine(std::move(points), Options()) {}
  Engine(UncertainSet points, Options options);

  /// Prebuilt index structures for FromParts — the durable store's
  /// recovery path (src/store/segment.cc), which deserializes each index's
  /// kd layout and adopts it instead of re-running construction. The flags
  /// and counts must equal what a scan of the points would derive; which
  /// pointers must be set follows the constructor's rule (disk_index iff
  /// all continuous, discrete_index + spiral iff all discrete, none for
  /// mixed inputs).
  struct Parts {
    bool all_discrete = true;
    bool all_continuous = true;
    size_t total_complexity = 0;
    std::unique_ptr<NonzeroNNIndex> disk_index;
    std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index;
    std::unique_ptr<SpiralSearchPNN> spiral;
  };

  /// Assembles an engine around prebuilt structures. Validates options and
  /// the flag/part pairing; the parts' internal consistency with `points`
  /// is the serializer's contract (checksummed together on disk, certified
  /// by round-trip tests). The result is indistinguishable from
  /// Engine(points, options) when the parts came from one.
  static std::unique_ptr<Engine> FromParts(UncertainSet points, Options options,
                                           Parts parts);

  /// NN!=0(q), sorted indices (Lemma 2.1 semantics).
  std::vector<int> NonzeroNN(Point2 q) const;

  /// Delta(q) = min_i Delta_i(q), the Lemma 2.1 pruning bound. Points with
  /// skip[i] != 0 are ignored (+inf if all are). The dynamic engine takes
  /// the min of this over its buckets to get the global bound.
  double NonzeroDelta(Point2 q, const std::vector<char>* skip = nullptr) const;

  /// All non-skipped i with delta_i(q) < bound, sorted. With
  /// bound = NonzeroDelta(q) this is exactly NonzeroNN(q); the dynamic
  /// engine passes the global bound over all buckets instead.
  std::vector<int> NonzeroNNWithin(Point2 q, double bound,
                                   const std::vector<char>* skip = nullptr) const;

  /// NonzeroNNWithin writing into `out` (cleared first) — with a warm
  /// scratch arena and a warm output buffer this allocates nothing, which
  /// is what keeps the dynamic NonzeroNN path at zero allocations
  /// per warm query (tests/alloc_hotpath_test.cc).
  void NonzeroNNWithinInto(Point2 q, double bound, const std::vector<char>* skip,
                           std::vector<int>* out) const;

  /// Estimates of all positive pi_i(q) within additive eps.
  std::vector<Quantification> Quantify(Point2 q,
                                       std::optional<double> eps = std::nullopt) const;

  /// Exact pi_i(q): Eq. (2) sweep for discrete inputs, Eq. (1) adaptive
  /// quadrature for continuous ones (tolerance 1e-8).
  std::vector<Quantification> QuantifyExact(Point2 q) const;

  /// Points with pi_i(q) > tau, using estimates of error eps ([DYM+05]).
  /// tau must be in [0, 1] (checked; probabilities outside it are vacuous).
  std::vector<Quantification> ThresholdNN(Point2 q, double tau,
                                          std::optional<double> eps = std::nullopt) const;

  /// Index with the largest estimated quantification probability.
  int MostLikelyNN(Point2 q, std::optional<double> eps = std::nullopt) const;

  /// The point minimizing the expected distance to q ([AESZ12] baseline).
  int ExpectedDistanceNN(Point2 q) const;

  /// The plan Quantify() will pick at this eps (query-independent: the
  /// spiral-vs-Monte-Carlo decision depends only on the retrieval budget).
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt) const;

  /// Eagerly builds every structure Quantify(·, eps) may need, so
  /// subsequent const queries are lock- and contention-free. Called by the
  /// batch executor before fanning out.
  void Prewarm(std::optional<double> eps = std::nullopt) const;

  /// Rounds of the current Monte-Carlo structure (0 if not built yet).
  size_t MonteCarloRounds() const;

  const UncertainSet& points() const { return points_; }
  const Options& options() const { return options_; }
  bool all_discrete() const { return all_discrete_; }
  bool all_continuous() const { return all_continuous_; }
  size_t total_complexity() const { return total_complexity_; }

  /// The spiral-search structure (null unless all points are discrete).
  /// Exposed for the dynamic engine's per-bucket location streams.
  const SpiralSearchPNN* spiral() const { return spiral_.get(); }

  /// The NN!=0 indexes, for the store's layout export (null when the
  /// constructor's presence rule says so; see Parts).
  const NonzeroNNIndex* disk_index() const { return disk_index_.get(); }
  const DiscreteNonzeroNNIndex* discrete_index() const {
    return discrete_index_.get();
  }

 private:
  friend class EngineBuilder;
  /// Shell for EngineBuilder::Finish/FinishInto to assemble into.
  Engine() = default;

  double ResolveEps(std::optional<double> eps) const;
  /// Snapshot of the Monte-Carlo structure for eps, building (or
  /// rebuilding at a tighter eps) under lazy_mu_. Returns a shared_ptr so
  /// in-flight queries keep the old structure alive across a concurrent
  /// rebuild; the fast path is a lock-free atomic load.
  std::shared_ptr<const MonteCarloPNN> EnsureMonteCarlo(double eps) const;
  std::shared_ptr<const ExpectedNNIndex> EnsureExpectedNN() const;

  UncertainSet points_;
  Options options_;
  bool all_discrete_ = true;
  bool all_continuous_ = true;
  size_t total_complexity_ = 0;  // Sum of description complexities.

  std::unique_ptr<NonzeroNNIndex> disk_index_;
  std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index_;
  std::unique_ptr<SpiralSearchPNN> spiral_;

  mutable std::mutex lazy_mu_;  // Serializes builds of the members below.
  // Accessed with std::atomic_load/atomic_store: readers snapshot it
  // lock-free, and a rebuild at a tighter eps swaps the pointer without
  // invalidating snapshots held by concurrent queries.
  mutable std::shared_ptr<const MonteCarloPNN> monte_carlo_;
  mutable std::shared_ptr<const ExpectedNNIndex> expected_nn_;
};

/// Staged Engine construction for the dynamic layer's sliced maintenance
/// builds: performs exactly the work of the Engine constructor, but split
/// into bounded Step() calls so a background build can yield between
/// chunks (the caller hops through its pool) instead of holding a
/// worker for the whole build. Stages: one pass over the points in
/// `chunk`-sized units (aggregates, then per-point gathering — hulls,
/// centroids, flattened locations), then one Step per index kd build,
/// each fanning out per-subtree on options.build_pool. The finished
/// engine is indistinguishable from Engine(points, options) — the Engine
/// constructor itself routes through a run-to-completion builder.
///
/// Transient memory: the staged arrays are the final structure's own
/// storage (reserved once, moved into the indexes), so a build's overhead
/// beyond the finished structure stays bounded by one chunk of gathering
/// plus kd scratch — not a second copy of the set (asserted with the
/// alloc-hook peak counter in bench_build_latency).
///
/// Not thread-safe; drive Step() from one thread (or chained pool hops)
/// at a time.
class EngineBuilder {
 public:
  /// `chunk` caps the points processed per scanning/gathering Step; 0
  /// means unbounded (each stage completes in one Step).
  EngineBuilder(UncertainSet points, Engine::Options options, size_t chunk = 0);
  ~EngineBuilder();

  EngineBuilder(const EngineBuilder&) = delete;
  EngineBuilder& operator=(const EngineBuilder&) = delete;

  /// True once every construction stage has run; Step() must not be
  /// called afterwards.
  bool done() const { return stage_ == Stage::kReady; }

  /// Performs one bounded unit of construction work.
  void Step();

  /// Moves the finished engine out (requires done()).
  std::unique_ptr<Engine> Finish();

 private:
  enum class Stage {
    kScan,                // Aggregate flags / complexity, chunked.
    kGatherContinuous,    // Disk list, chunked.
    kBuildDiskIndex,      // One kd build (pool-parallel).
    kGatherDiscrete,      // Hulls, centroids, flattened locations, chunked.
    kBuildDiscreteIndex,  // Two kd builds (pool-parallel).
    kBuildSpiral,         // One kd build (pool-parallel).
    kReady,
  };

  void FinishInto(Engine* e);
  size_t ChunkEnd() const;

  friend class Engine;  // Engine's own constructor runs a builder inline.

  Stage stage_ = Stage::kScan;
  size_t cursor_ = 0;
  size_t chunk_ = 0;
  UncertainSet points_;
  Engine::Options options_;

  bool all_discrete_ = true;
  bool all_continuous_ = true;
  size_t total_complexity_ = 0;

  // Staging for the index parts (moved into the structures when built).
  std::vector<Circle> disks_;
  std::vector<std::vector<Point2>> hulls_;
  std::vector<Point2> centroids_;
  std::vector<Point2> locations_;        // DiscreteNonzeroNNIndex's copy.
  std::vector<int> owners_;
  std::vector<Point2> spiral_locations_; // SpiralSearchPNN's copy.
  std::vector<int> spiral_owners_;
  std::vector<double> spiral_weights_;
  std::vector<int> counts_;
  size_t max_k_ = 1;
  double wmin_ = 1.0;
  double wmax_ = 0.0;

  std::unique_ptr<NonzeroNNIndex> disk_index_;
  std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index_;
  std::unique_ptr<SpiralSearchPNN> spiral_;
};

}  // namespace pnn

#endif  // PNN_CORE_PNN_H_
