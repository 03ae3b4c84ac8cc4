// Per-snapshot cache of Monte-Carlo tail samples: MergedMonteCarloQuantify
// takes every live tail entry's round-r sample from the counter-based
// stream of (seed, r, id) (MonteCarloPNN::RoundSample) — a pure function
// of (seed, r, id) — so the samples can be computed once per snapshot and
// shared by every query against it, instead of redrawn per (round, tail
// entry) per query. Samples are
// stored as per-point rows (McRounds, the bucket layout), so the pruned
// winner scan in MergedMonteCarloQuantify reads a tail candidate exactly
// like a bucket member. The cache object rides on the Snapshot (see
// Snapshot::tail_mc): a new snapshot publish (insert/erase/merge, or a new
// combined union in the shard router) starts a fresh empty cache, which is
// exactly the required invalidation.
//
// Concurrency mirrors Bucket::EnsureRounds: extensions serialize on a
// mutex, readers take lock-free atomic-shared_ptr snapshots, and an
// extension shares the already-built blocks so winners stay bit-identical
// at any rounds progression.

#ifndef PNN_DYN_TAIL_CACHE_H_
#define PNN_DYN_TAIL_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {

/// One immutable generation of tail samples: the live tail entries (in
/// tail order) and their sample rows.
struct TailSamples {
  uint64_t seed = 0;
  std::vector<Id> ids;               // Live tail ids, tail order.
  std::vector<uint32_t> tail_index;  // Position of ids[j] in the snapshot tail.
  McRounds rows;                     // Member j is ids[j].
};

class TailMcCache {
 public:
  /// Samples for rounds [0, rounds) of every live tail entry of `snap`,
  /// built on demand. `snap` must be the snapshot this cache was published
  /// with (the live tail set is fixed per snapshot); `seed` is the engine
  /// seed and must not vary across calls on one cache.
  std::shared_ptr<const TailSamples> Ensure(const Snapshot& snap, size_t rounds,
                                            uint64_t seed);

 private:
  std::mutex mu_;  // Serializes extensions.
  // Accessed with std::atomic_load/atomic_store (the Engine snapshot
  // pattern): readers are lock-free once enough rounds exist.
  std::shared_ptr<const TailSamples> cur_;
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_TAIL_CACHE_H_
