// pnn::dyn — dynamic uncertain-point engine: Insert/Erase plus the full
// pnn::Engine query surface, with answers identical to a freshly built
// static Engine over the current live set.
//
// Structure (Bentley–Saxe logarithmic method): points live in O(log n)
// geometrically sized immutable buckets, each backed by a static
// pnn::Engine, plus a small mutable tail answered by brute force. Inserts
// append to the tail; once it exceeds `tail_limit` a merge folds it —
// together with every bucket no larger than the accumulated merge — into a
// new bucket, so a point's bucket at least doubles each time it is rebuilt
// (O(log n) rebuilds per point, O(polylog n) amortized insert). Erases are
// tombstones (per-bucket masks / a tail set); once the dead fraction
// exceeds `max_dead_fraction` a compaction rebuilds the structure from the
// live set. Merges and compactions can run as background jobs on an
// exec::ThreadPool; structure versions are published with the atomic
// shared_ptr snapshot pattern of Engine::EnsureMonteCarlo, so queries
// never block on a rebuild.
//
// Equivalence contract: every query decomposes exactly across the
// partition into buckets + tail —
//   * NonzeroNN: Delta(q) = min over parts, then per-part threshold
//     reporting (Lemma 2.1 is a pure min/filter, so the partition is
//     invisible);
//   * spiral Quantify: per-bucket best-first location streams are k-way
//     merged into the global distance order and fed through the same
//     tie-grouped sweep (QuantifyPrefixSweep) a monolithic structure runs;
//   * Monte-Carlo Quantify: a sample is a pure function of (seed, round,
//     point id) — two counter-based draws (MonteCarloPNN::RoundSample,
//     keyed like Options::stream_ids) — cached as per-point sample rows,
//     so the per-round global NN is a running argmin over identical
//     samples. Only Lemma 2.1 candidates
//     (MinDistance(q) <= Delta(q), plus a rounding slack) can own a
//     round's nearest sample, so only their rows are scanned — visiting
//     parts in snapshot order and members in ascending local order with
//     strict <, the same tie order as an argmin over every member;
//   * QuantifyExact (discrete): per-part survival profiles multiply by the
//     paper's independence structure (SurvivalProfile in core/prob).
// Consequently answers match a fresh Engine(LiveSet(),
// ReferenceEngineOptions()) — bit-identically for NonzeroNN/Quantify/
// ThresholdNN — regardless of the update history, the merge schedule, or
// the thread count, up to the same measure-zero distance ties the batch
// executor documents.

#ifndef PNN_DYN_DYNAMIC_ENGINE_H_
#define PNN_DYN_DYNAMIC_ENGINE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/core/pnn.h"
#include "src/dyn/bucket.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

struct Options {
  /// Shared by every bucket's static engine: seed, eps defaults and the
  /// spiral-vs-Monte-Carlo plan rule. mc_stream_ids is managed internally
  /// and must stay empty.
  Engine::Options engine;
  /// Live tail entries that trigger a bucket merge.
  size_t tail_limit = 64;
  /// Tombstone fraction of the structure that triggers a compaction.
  double max_dead_fraction = 0.25;
  /// When set, merges/compactions run as background jobs here and
  /// Monte-Carlo sample rows build across it (Prewarm, prewarm_after_build;
  /// the query-time scan itself always runs on the calling thread). When
  /// null, maintenance runs inline in the update that triggered it. Unless
  /// engine.build_pool is set explicitly, it defaults to this pool, so
  /// bucket kd builds fork per-subtree across the same workers.
  exec::ThreadPool* pool = nullptr;
  /// Points per sliced-build step: a maintenance build gathers the live
  /// set once, then constructs the replacement bucket in units of ~this
  /// many points (per-subtree kd construction inside each unit), yielding
  /// between units. Bounds the transient build memory to the gathered
  /// live set plus one unit and keeps concurrent pool work flowing. 0 =
  /// monolithic single-pass build. The published structure is identical
  /// either way.
  size_t build_chunk = 8192;
  /// Prewarm as part of maintenance: when the Monte-Carlo plan is active
  /// at default_eps, a merge/compaction draws the new bucket's Monte-Carlo
  /// sample rows before publishing it (and the published snapshot's tail
  /// samples right after), so the first query after a bucket build doesn't
  /// pay the lazy construction inside its latency. Sampling is chunked by
  /// build_chunk like the bucket build itself.
  bool prewarm_after_build = false;
  /// Attach an AnswerCache to every published snapshot: repeated queries
  /// against the same snapshot return the memoized answer instead of
  /// re-evaluating (invalidation is the publish itself — see
  /// answer_cache.h). Answers are identical either way; off exists for
  /// benchmarking the uncached path.
  bool answer_cache = true;
};

struct TailEntry {
  Id id;
  UncertainPoint point;
};

class TailMcCache;  // Per-snapshot Monte-Carlo tail samples (tail_cache.h).
class AnswerCache;  // Per-snapshot cross-query answers (answer_cache.h).

/// One immutable version of the structure. Queries snapshot it with a
/// lock-free atomic load and are unaffected by concurrent updates or
/// background rebuilds (old versions stay alive through the shared_ptrs a
/// running query holds).
struct Snapshot {
  struct BucketRef {
    std::shared_ptr<const Bucket> bucket;
    /// Tombstone mask in bucket-local indexing; null when nothing is dead.
    std::shared_ptr<const std::vector<char>> dead;
    size_t live_count = 0;
  };
  std::vector<BucketRef> buckets;
  /// Tail entries in insertion order. Ids are not necessarily ascending
  /// (InsertWithId may re-add an id that was erased earlier, as a store
  /// log's kMoveOut/kMoveIn replay does), and an id may recur dead in one
  /// part and live in another; deadness is therefore positional, never
  /// keyed by id.
  std::shared_ptr<const std::vector<TailEntry>> tail;
  /// Tombstone mask parallel to `tail`; null when nothing is dead.
  std::shared_ptr<const std::vector<char>> tail_dead;
  /// Lazily built per-(seed, rounds) Monte-Carlo tail samples, shared by
  /// every query against this snapshot so repeated quantifications sample
  /// the tail once (null when the tail has no live entries — notably on
  /// hand-built snapshots, where the merge layer samples into a throwaway
  /// cache per query). A snapshot publish starts a fresh cache: that is
  /// the invalidation on insert/erase/merge/compaction.
  std::shared_ptr<TailMcCache> tail_mc;
  /// Cross-query answer memoization for this snapshot (null on hand-built
  /// snapshots and when Options::answer_cache is off — queries then just
  /// evaluate). Shares the publish-is-the-invalidation lifecycle with
  /// tail_mc.
  std::shared_ptr<AnswerCache> answers;

  // Aggregates over the live set, mirroring what a fresh static Engine
  // derives at construction (pnn.cc / spiral.cc):
  size_t live_count = 0;
  size_t discrete_count = 0;
  size_t continuous_count = 0;
  size_t total_complexity = 0;  // Sum of description complexities.
  size_t max_k = 1;             // max over live points of max(k, 1).
  // Location-weight spread wmax / wmin over the live set, with
  // SpiralSearchPNN's seeding (wmin clamped to <= 1, wmax seeded 0).
  double rho = 0.0;

  bool all_discrete() const { return live_count > 0 && continuous_count == 0; }
  bool all_continuous() const { return live_count > 0 && discrete_count == 0; }
  bool TailAlive(size_t index) const {
    return tail_dead == nullptr || (*tail_dead)[index] == 0;
  }
};

/// One recovered bucket for the recovery constructor: the adopted bucket
/// (rebuilt from a mapped segment by store::LoadSegment) plus the
/// tombstone mask its store's log prescribed. An empty mask means fully
/// alive.
struct RecoveredBucket {
  std::shared_ptr<const Bucket> bucket;
  std::vector<char> dead;
};

/// Read-only enumeration of a snapshot's frozen state — what the durable
/// store serializes. Views borrow from the snapshot they were taken over;
/// the caller keeps that snapshot alive while using them. This is the
/// supported checkpointing surface: the serializer consumes exactly these
/// spans instead of poking at engine internals.
struct SnapshotIntrospection {
  struct BucketView {
    const Bucket* bucket = nullptr;       // ids() / points() / engine().
    const std::vector<char>* dead = nullptr;  // Null when fully alive.
    size_t live_count = 0;
  };
  std::vector<BucketView> buckets;
  const std::vector<TailEntry>* tail = nullptr;   // Insertion order.
  const std::vector<char>* tail_dead = nullptr;   // Null when fully alive.
  size_t live_count = 0;                          // Buckets + tail, live only.
};

/// Introspects one snapshot (grab it with DynamicEngine::snapshot()).
SnapshotIntrospection Introspect(const Snapshot& snap);

/// Thread safety: all query methods are const and may run concurrently
/// with each other, with updates, and with background maintenance. Updates
/// (Insert/Erase) serialize on an internal mutex and are safe to call from
/// one or many threads.
class DynamicEngine {
 public:
  explicit DynamicEngine(Options options = Options());
  /// Bulk load: the initial points become one bucket with ids 0..n-1.
  explicit DynamicEngine(const UncertainSet& initial, Options options = Options());
  /// Recovery: adopts already-built buckets with their tombstone masks
  /// (the durable store's segment + mask replay), instead of rebuilding
  /// from points. Live ids across the buckets must be unique; next_id
  /// continues from max(next_id_floor, largest recovered id + 1). The log
  /// tail's op records are then replayed through the normal
  /// InsertWithId/Erase path on top.
  DynamicEngine(std::vector<RecoveredBucket> recovered, Id next_id_floor,
                Options options = Options());
  ~DynamicEngine();

  DynamicEngine(const DynamicEngine&) = delete;
  DynamicEngine& operator=(const DynamicEngine&) = delete;

  /// Adds a point; returns its stable id (sequential from 0).
  Id Insert(UncertainPoint point);

  /// Adds a point under a caller-chosen id (must be >= 0 and not currently
  /// live). The durable store assigns ids itself and applies inserts (and
  /// log replay) through this; the engine may still hold a tombstoned copy
  /// of the same id. Sample streams are keyed by id, so a point keeps its
  /// Monte-Carlo identity across a re-insert.
  void InsertWithId(Id id, UncertainPoint point);

  /// Removes a point; false if the id is unknown or already erased.
  bool Erase(Id id);

  /// True while `id` is live. The store's log replay uses this to make
  /// duplicated records idempotent (a replayed insert of a live id / erase
  /// of a dead one is skipped, not an abort).
  bool IsLive(Id id) const;

  /// NN!=0(q) over the live set, ascending ids (Lemma 2.1 semantics).
  std::vector<Id> NonzeroNN(Point2 q) const;

  /// NonzeroNN over an explicit snapshot (the batch executor grabs one
  /// snapshot per batch instead of per query).
  std::vector<Id> NonzeroNN(const Snapshot& snap, Point2 q) const;

  /// NonzeroNN writing into `out` (cleared first) — with a warm scratch
  /// arena and a warm output buffer a steady-state call performs zero
  /// heap allocations (tests/alloc_hotpath_test.cc).
  void NonzeroNNInto(Point2 q, std::vector<Id>* out) const;
  void NonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out) const;

  /// Estimates of all positive pi_i(q) within additive eps; Quantification
  /// indices are point ids, ascending.
  std::vector<Quantification> Quantify(Point2 q,
                                       std::optional<double> eps = std::nullopt) const;

  /// Quantify over an explicit snapshot.
  std::vector<Quantification> Quantify(const Snapshot& snap, Point2 q,
                                       std::optional<double> eps = std::nullopt) const;

  /// Quantify writing into `out` (cleared first) — with warm caches and a
  /// warm scratch arena this performs zero heap allocations on the spiral
  /// and Monte-Carlo paths (asserted by tests/alloc_hotpath_test.cc).
  void QuantifyInto(Point2 q, std::optional<double> eps,
                    std::vector<Quantification>* out) const;
  void QuantifyInto(const Snapshot& snap, Point2 q, std::optional<double> eps,
                    std::vector<Quantification>* out) const;

  /// Exact pi_i(q) (discrete: per-bucket survival-profile recombination;
  /// continuous: quadrature over the gathered live set).
  std::vector<Quantification> QuantifyExact(Point2 q) const;

  /// QuantifyExact over an explicit snapshot (the api::EngineRef pinned
  /// dispatch path).
  std::vector<Quantification> QuantifyExact(const Snapshot& snap, Point2 q) const;

  /// Points with pi_i(q) > tau; tau must be in [0, 1] (checked).
  std::vector<Quantification> ThresholdNN(Point2 q, double tau,
                                          std::optional<double> eps = std::nullopt) const;

  /// ThresholdNN over an explicit snapshot.
  std::vector<Quantification> ThresholdNN(const Snapshot& snap, Point2 q, double tau,
                                          std::optional<double> eps = std::nullopt) const;

  /// Id with the largest estimated quantification probability (-1 when the
  /// live set is empty).
  Id MostLikelyNN(Point2 q, std::optional<double> eps = std::nullopt) const;

  /// MostLikelyNN over an explicit snapshot.
  Id MostLikelyNN(const Snapshot& snap, Point2 q,
                  std::optional<double> eps = std::nullopt) const;

  /// The plan Quantify() will pick at this eps, by the same rule a fresh
  /// static Engine over the live set applies.
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt) const;

  /// Builds every per-bucket structure Quantify(·, eps) may need (batch
  /// callers fan out afterwards without contending on construction).
  void Prewarm(std::optional<double> eps = std::nullopt) const;

  size_t live_size() const;
  size_t num_buckets() const;
  size_t tail_size() const;  // Live tail entries.
  size_t dead_size() const;  // Tombstones not yet compacted away.
  const Options& options() const { return options_; }

  /// The live set in ascending-id order, optionally with the ids — the
  /// input a reference static Engine is built over.
  UncertainSet LiveSet(std::vector<Id>* ids = nullptr) const;

  /// Options for a static Engine over LiveSet() that answers
  /// bit-identically to this engine: the shared engine options plus
  /// mc_stream_ids = the live ids (so Monte-Carlo samples coincide).
  Engine::Options ReferenceEngineOptions() const;

  /// Blocks until no background merge/compaction is running or pending.
  void WaitForMaintenance() const;

  /// The current immutable structure version (lock-free acquire load):
  /// the pin for the snapshot query overloads above.
  std::shared_ptr<const Snapshot> snapshot() const { return Snap(); }

 private:
  struct MaintenancePlan;
  struct BuildJob;

  std::shared_ptr<const Snapshot> Snap() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }
  void PublishLocked();
  void InsertEntryLocked(Id id, UncertainPoint point);
  double ResolveEps(std::optional<double> eps) const;
  size_t RoundsFor(const Snapshot& snap, double eps) const;
  QuantifyPlan PlanFor(const Snapshot& snap, double eps) const;
  void AddAggregatesLocked(const UncertainPoint& p);
  void RemoveAggregatesLocked(const UncertainPoint& p);
  bool MaintenanceNeededLocked() const;
  /// May release `lock` (inline maintenance mode); callers must not touch
  /// guarded state afterwards.
  void MaybeStartMaintenanceLocked(std::unique_lock<std::mutex>& lock);
  MaintenancePlan DecidePlanLocked();
  void SpliceLocked(const MaintenancePlan& plan,
                    std::shared_ptr<const Bucket> built);
  /// One bounded unit of maintenance (plan decision, a build slice, a
  /// prewarm batch, or the splice). Returns false once maintenance is
  /// finished (and maintenance_running_ has been cleared).
  bool MaintenanceStep();
  /// Inline driver: steps back-to-back on the calling thread.
  void MaintenanceLoop();
  /// Background driver: runs one step, then re-submits itself through the
  /// pool — the cooperative yield between slices.
  void MaintenanceChain();

  Options options_;

  mutable std::mutex mu_;  // Serializes updates and maintenance swaps.
  mutable std::condition_variable cv_;
  // Accessed with std::atomic_load/atomic_store; queries are lock-free.
  std::shared_ptr<const Snapshot> snapshot_;

  // Writer state (guarded by mu_):
  // Ascending by id (NOT insertion order once InsertWithId re-adds old
  // ids); this ordering is what keeps compaction bucket ids ascending.
  std::map<Id, UncertainPoint> live_;
  std::multiset<double> live_weights_;
  std::multiset<size_t> live_ks_;
  size_t discrete_count_ = 0;
  size_t continuous_count_ = 0;
  size_t total_complexity_ = 0;
  Id next_id_ = 0;
  std::vector<Snapshot::BucketRef> buckets_;
  std::vector<TailEntry> tail_;
  std::vector<char> tail_dead_mask_;  // Parallel to tail_.
  size_t tail_dead_count_ = 0;
  bool maintenance_running_ = false;
  bool building_ = false;
  std::vector<Id> erased_during_build_;

  // Owned by the maintenance driver (a single logical thread: the inline
  // loop, or the chained pool hops, which never overlap); not
  // guarded by mu_.
  std::unique_ptr<BuildJob> job_;
};

/// The spiral-vs-Monte-Carlo routing rule over a snapshot's aggregates —
/// exactly what a fresh static Engine over the same live set would decide
/// (DynamicEngine::PlanForQuantify over its current snapshot).
QuantifyPlan PlanForSnapshot(const Snapshot& snap, const Engine::Options& options,
                             double eps);

/// Monte-Carlo rounds the plan above needs at this eps (the override, or
/// MonteCarloPNN::TheoreticalRounds over the snapshot's live aggregates).
size_t McRoundsForSnapshot(const Snapshot& snap, const Engine::Options& options,
                           double eps);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_DYNAMIC_ENGINE_H_
