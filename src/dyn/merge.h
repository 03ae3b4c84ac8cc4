// Cross-bucket query recombination for the dynamic engine: each function
// answers one query mode over a Snapshot by decomposing it across the
// buckets + tail partition and recombining exactly (see the equivalence
// contract in dynamic_engine.h).
//
// Degenerate snapshots are handled uniformly: an empty snapshot (no parts,
// or every bucket and tail entry tombstoned, live_count == 0) yields empty
// results from every function here rather than tripping the all-discrete
// checks or streaming from dead parts.

#ifndef PNN_DYN_MERGE_H_
#define PNN_DYN_MERGE_H_

#include <cstdint>
#include <vector>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {

/// NN!=0(q): global Delta(q) = min over parts, then per-part threshold
/// reporting. Ascending ids.
std::vector<Id> MergedNonzeroNN(const Snapshot& snap, Point2 q);

/// MergedNonzeroNN writing into `out` (cleared first). Per-part reports
/// land in scratch-arena buffers (Engine::NonzeroNNWithinInto), so with a
/// warm arena and a warm output buffer this allocates nothing.
void MergedNonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out);

/// Stage 1 of MergedNonzeroNN on its own: the snapshot's Lemma 2.1
/// pruning bound Delta(q), min over its live parts (+inf when every part
/// is dead). MergedMonteCarloQuantify prunes its candidates by it too.
double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q);

/// The snapshot's live set in ascending-id order (with the ids when
/// `ids` is non-null) — the snapshot-consistent counterpart of
/// DynamicEngine::LiveSet for queries that gather the whole set.
UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids);

/// Spiral-search quantification: k-way merges the per-bucket best-first
/// location streams (plus sorted tail locations) into the global distance
/// order and runs the shared truncated sweep. Requires an all-discrete
/// live set. Quantification indices are ids, ascending.
std::vector<Quantification> MergedSpiralQuantify(const Snapshot& snap, Point2 q,
                                                 double eps);

/// MergedSpiralQuantify writing into `out` (cleared first). All merge
/// bookkeeping (stream heaps, the retrieved prefix, owner labels) comes
/// from the per-thread scratch arena: with warm pools this allocates
/// nothing.
void MergedSpiralQuantifyInto(const Snapshot& snap, Point2 q, double eps,
                              std::vector<Quantification>* out);

/// Monte-Carlo quantification over `rounds` id-keyed instantiations,
/// pruned by Lemma 2.1: only live points with MinDistance(q) <= Delta(q)
/// (= SnapshotNonzeroDelta, with a rounding slack) can own a round's
/// nearest sample, so per round the global nearest sample is a running
/// argmin over just those candidates' cached sample rows — buckets in
/// snapshot order, local indices ascending, then the tail (sampled into a
/// throwaway cache when the snapshot carries none). Runs on the calling
/// thread.
std::vector<Quantification> MergedMonteCarloQuantify(const Snapshot& snap, Point2 q,
                                                     size_t rounds, uint64_t seed);

/// MergedMonteCarloQuantify writing into `out` (cleared first); candidate,
/// per-round and histogram scratch come from the per-thread arena. With
/// warm bucket rows and a warm tail cache this allocates nothing.
void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  uint64_t seed, std::vector<Quantification>* out);

/// Exact discrete quantification by survival-profile recombination:
///   pi_i = sum over i's locations of
///          (within-part partial) * prod_{other parts} profile(dist),
/// using QuantifyPartDiscrete per part (mathematically exact; float
/// reassociation keeps it within ~1e-12 of the monolithic sweep).
std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q);

/// Pre-sizes the calling thread's scratch pools for every buffer the
/// query recombinations above (and the kd/quantify layers under them)
/// lease, so the thread's first queries skip the pool-growing
/// allocations. Intended as a ThreadPool worker_init hook:
///   exec::ThreadPool::Options po;
///   po.worker_init = [] { dyn::PrewarmWorkerScratch(n_hint, rounds_hint); };
/// `points_hint` ~ live points served per query (sizes stacks, heaps,
/// report buffers and Monte-Carlo candidate lists), `rounds_hint` ~
/// Monte-Carlo rounds (sizes the per-round winner and distance tables).
void PrewarmWorkerScratch(size_t points_hint, size_t rounds_hint);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_MERGE_H_
