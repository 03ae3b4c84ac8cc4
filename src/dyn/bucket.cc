#include "src/dyn/bucket.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace pnn {
namespace dyn {

namespace {

Engine::Options BucketEngineOptions(Engine::Options options) {
  // Per-point stream ids sized for some other point set must not leak into
  // the bucket engine's validation; the dynamic engine maintains id-keyed
  // per-point sample rows itself (see McRounds).
  options.mc_stream_ids.clear();
  return options;
}

}  // namespace

Bucket::Bucket(std::vector<Id> ids, UncertainSet points, Engine::Options options)
    : ids_(std::move(ids)),
      seed_(options.seed),
      engine_(std::make_unique<Engine>(std::move(points),
                                       BucketEngineOptions(std::move(options)))) {
  PNN_CHECK_MSG(ids_.size() == engine_->points().size(),
                "bucket ids/points size mismatch");
  PNN_CHECK_MSG(std::is_sorted(ids_.begin(), ids_.end()), "bucket ids must ascend");
}

Bucket::Bucket(std::vector<Id> ids, std::unique_ptr<Engine> engine)
    : ids_(std::move(ids)),
      seed_(engine->options().seed),
      engine_(std::move(engine)) {
  PNN_CHECK_MSG(ids_.size() == engine_->points().size(),
                "bucket ids/points size mismatch");
  PNN_CHECK_MSG(std::is_sorted(ids_.begin(), ids_.end()), "bucket ids must ascend");
}

SlicedBucketBuilder::SlicedBucketBuilder(std::vector<Id> ids, UncertainSet points,
                                         Engine::Options options, size_t chunk)
    : ids_(std::move(ids)),
      builder_(std::move(points), BucketEngineOptions(std::move(options)), chunk) {}

std::shared_ptr<const Bucket> SlicedBucketBuilder::Finish() {
  return std::make_shared<const Bucket>(std::move(ids_), builder_.Finish());
}

int Bucket::LocalIndex(Id id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return -1;
  return static_cast<int>(it - ids_.begin());
}

McRounds ExtendMcRounds(const McRounds& cur, size_t rounds, uint64_t seed,
                        const std::vector<Id>& ids,
                        const std::function<const UncertainPoint&(size_t)>& point,
                        exec::ThreadPool* pool) {
  constexpr size_t K = McRounds::kBlockRounds;
  constexpr size_t kMembersPerTask = 4;
  if (rounds <= cur.rounds) return cur;
  // Full blocks are shared as they are; a partial last block is rebuilt
  // wider, copying its drawn columns instead of resampling them.
  size_t first = cur.rounds / K;
  size_t end = (rounds + K - 1) / K;
  std::vector<std::shared_ptr<McRounds::Block>> fresh(end - first);
  for (size_t b = first; b < end; ++b) {
    auto block = std::make_shared<McRounds::Block>();
    block->width = std::min(K, rounds - b * K);
    block->samples.resize(ids.size() * 2 * block->width);
    fresh[b - first] = std::move(block);
  }
  const McRounds::Block* partial =
      first < cur.blocks.size() ? cur.blocks[first].get() : nullptr;
  // Tasks are runs of members across every new block: equal work each, so
  // the fan-out balances whatever the block widths.
  size_t m = ids.size();
  size_t tasks = (m + kMembersPerTask - 1) / kMembersPerTask;
  exec::MaybeParallelFor(pool, tasks, [&](size_t t) {
    size_t j_end = std::min(m, (t + 1) * kMembersPerTask);
    for (size_t j = t * kMembersPerTask; j < j_end; ++j) {
      uint64_t stream = static_cast<uint64_t>(ids[j]);
      for (size_t b = first; b < end; ++b) {
        McRounds::Block& block = *fresh[b - first];
        size_t w = block.width;
        double* row = block.samples.data() + j * 2 * w;
        size_t drawn = 0;
        if (b == first && partial != nullptr) {
          drawn = partial->width;
          const double* old = partial->samples.data() + j * 2 * drawn;
          std::copy(old, old + drawn, row);
          std::copy(old + drawn, old + 2 * drawn, row + w);
        }
        for (size_t k = drawn; k < w; ++k) {
          uint64_t round_seed = SplitSeed(seed, b * K + k);
          Point2 p = MonteCarloPNN::RoundSample(point(j), round_seed, stream);
          row[k] = p.x;
          row[w + k] = p.y;
        }
      }
    }
  });
  McRounds next;
  next.blocks.assign(cur.blocks.begin(), cur.blocks.begin() + first);
  next.blocks.insert(next.blocks.end(), fresh.begin(), fresh.end());
  next.rounds = rounds;
  return next;
}

std::shared_ptr<const McRounds> Bucket::EnsureRounds(size_t rounds,
                                                     exec::ThreadPool* pool) const {
  auto cur = std::atomic_load_explicit(&mc_, std::memory_order_acquire);
  if (cur && cur->rounds >= rounds) return cur;
  std::lock_guard<std::mutex> lock(mc_mu_);
  cur = std::atomic_load_explicit(&mc_, std::memory_order_acquire);
  if (cur && cur->rounds >= rounds) return cur;

  const UncertainSet& pts = engine_->points();
  auto point = [&](size_t j) -> const UncertainPoint& { return pts[j]; };
  std::shared_ptr<const McRounds> next = std::make_shared<McRounds>(
      ExtendMcRounds(cur ? *cur : McRounds{}, rounds, seed_, ids_, point, pool));
  std::atomic_store_explicit(&mc_, next, std::memory_order_release);
  return next;
}

}  // namespace dyn
}  // namespace pnn
