// One immutable Bentley–Saxe bucket of the dynamic engine: a frozen slice
// of the live set with its own static pnn::Engine, plus a lazily extended
// cache of per-point Monte-Carlo sample rows keyed by stable point ids.
//
// A bucket never changes after construction; erases are tombstone masks
// kept next to the bucket in the engine's snapshot, and growth happens by
// building a new bucket and swapping snapshots (queries never block).

#ifndef PNN_DYN_BUCKET_H_
#define PNN_DYN_BUCKET_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/pnn.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

/// Stable identifier of an inserted point (assigned sequentially, so
/// ascending-id order equals insertion order equals the rank order of a
/// fresh static Engine over the live set).
using Id = int;

/// Monte-Carlo instantiations of a fixed member list (a bucket's members,
/// or a snapshot's live tail): member j's round-r sample is
/// MonteCarloPNN::RoundSample(point j, SplitSeed(seed, r), id_j) — exactly
/// the sample a monolithic MonteCarloPNN with stream_ids = member ids
/// draws, so a per-round argmin over the members' samples reproduces its
/// per-round nearest neighbor. Rounds come in blocks of
/// K = kBlockRounds (the last block may hold fewer); within a block of
/// width w each member owns one contiguous sample row, its w x
/// coordinates followed by its w y coordinates:
///   x of round r = blocks[r / K]->samples[j * 2 * w + r % K]
///   y of round r = the same index + w.
/// A query reads whole rows of a few members, so a row is one memory
/// stream. Blocks are immutable and shared between generations: an
/// extension appends blocks and re-copies at most the one partial block.
struct McRounds {
  static constexpr size_t kBlockRounds = 256;
  struct Block {
    size_t width = 0;  // Rounds held: kBlockRounds, or fewer in the last block.
    std::vector<double> samples;
  };
  std::vector<std::shared_ptr<const Block>> blocks;
  size_t rounds = 0;
};

/// `cur` extended to cover `rounds` rounds (`cur` itself when it already
/// does) for members sampled from point(j) under stream id ids[j] by
/// MonteCarloPNN::RoundSample. The new samples draw on `pool` when
/// provided; they depend only on (seed, round, id), so the result is
/// schedule-independent.
McRounds ExtendMcRounds(const McRounds& cur, size_t rounds, uint64_t seed,
                        const std::vector<Id>& ids,
                        const std::function<const UncertainPoint&(size_t)>& point,
                        exec::ThreadPool* pool);

class Bucket {
 public:
  /// `ids` must be ascending and parallel to `points`; both non-empty.
  /// `options` is the dynamic engine's shared Engine configuration (its
  /// mc_stream_ids, if any, are ignored: the bucket engine's own
  /// Monte-Carlo path is unused).
  Bucket(std::vector<Id> ids, UncertainSet points, Engine::Options options);

  /// Adoption form for SlicedBucketBuilder: wraps an engine built
  /// elsewhere (in bounded steps) without re-running construction.
  Bucket(std::vector<Id> ids, std::unique_ptr<Engine> engine);

  const std::vector<Id>& ids() const { return ids_; }
  const UncertainSet& points() const { return engine_->points(); }
  const Engine& engine() const { return *engine_; }
  size_t size() const { return ids_.size(); }

  /// Local index of `id`, or -1 (binary search; ids are ascending).
  int LocalIndex(Id id) const;

  /// Sample rows covering rounds [0, rounds) of the Monte-Carlo cache,
  /// drawing any missing rounds (on `pool` when provided). Builds
  /// serialize on an internal mutex; completed blocks are shared between
  /// extensions, and readers holding an older McRounds keep it alive via
  /// shared_ptr.
  std::shared_ptr<const McRounds> EnsureRounds(size_t rounds,
                                               exec::ThreadPool* pool) const;

 private:
  std::vector<Id> ids_;
  uint64_t seed_;
  std::unique_ptr<Engine> engine_;  // Never null.

  mutable std::mutex mc_mu_;  // Serializes round-cache extensions.
  // Accessed with std::atomic_load/atomic_store (the Engine snapshot
  // pattern): readers are lock-free once enough rounds exist.
  mutable std::shared_ptr<const McRounds> mc_;
};

/// Builds a Bucket in bounded steps — the sliced-compaction unit of the
/// dynamic engine's maintenance. Wraps EngineBuilder (each Step is at most
/// ~chunk points of gathering, or one kd build fanning out per-subtree on
/// the engine options' build_pool) and assembles the Bucket at Finish.
/// The produced bucket is identical to Bucket(ids, points, options).
class SlicedBucketBuilder {
 public:
  /// Same preconditions as the Bucket constructor. chunk = 0 builds in
  /// one Step per stage.
  SlicedBucketBuilder(std::vector<Id> ids, UncertainSet points,
                      Engine::Options options, size_t chunk);

  bool done() const { return builder_.done(); }
  void Step() { builder_.Step(); }
  std::shared_ptr<const Bucket> Finish();

 private:
  std::vector<Id> ids_;
  EngineBuilder builder_;
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_BUCKET_H_
