#include "src/dyn/tail_cache.h"

#include "src/util/check.h"

namespace pnn {
namespace dyn {

std::shared_ptr<const TailSamples> TailMcCache::Ensure(const Snapshot& snap,
                                                       size_t rounds,
                                                       uint64_t seed) {
  auto cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (cur && cur->seed == seed && cur->rows.rounds >= rounds) return cur;
  std::lock_guard<std::mutex> lock(mu_);
  cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (cur && cur->seed == seed && cur->rows.rounds >= rounds) return cur;

  PNN_CHECK_MSG(snap.tail != nullptr, "tail cache on a snapshot without a tail");
  const std::vector<TailEntry>& tail = *snap.tail;
  auto next = std::make_shared<TailSamples>();
  next->seed = seed;
  if (cur && cur->seed == seed) {
    // Extension: the filtered live set is a property of the snapshot, so
    // it is identical; the built blocks are shared, not copied.
    next->ids = cur->ids;
    next->tail_index = cur->tail_index;
    next->rows = cur->rows;
  } else {
    for (size_t i = 0; i < tail.size(); ++i) {
      if (!snap.TailAlive(i)) continue;
      next->ids.push_back(tail[i].id);
      next->tail_index.push_back(static_cast<uint32_t>(i));
    }
  }
  const std::vector<uint32_t>& index = next->tail_index;
  auto point = [&](size_t j) -> const UncertainPoint& { return tail[index[j]].point; };
  next->rows = ExtendMcRounds(next->rows, rounds, seed, next->ids, point, nullptr);
  std::atomic_store_explicit(&cur_, std::shared_ptr<const TailSamples>(next),
                             std::memory_order_release);
  return next;
}

}  // namespace dyn
}  // namespace pnn
