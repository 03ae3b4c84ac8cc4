// Zero-allocation guarantees of the steady-state query hot path: with warm
// caches (bucket Monte-Carlo rounds, tail samples, the snapshot's answer
// cache) and a warm per-thread scratch arena, QuantifyInto on the spiral
// and Monte-Carlo paths of the dynamic engine performs zero heap
// allocations. Referencing util::AllocationCount() links in the counting
// operator new override (util/alloc_hook.cc), so the assertions see every
// allocation in the process.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/dyn/merge.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

UncertainPoint SmallDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-40, 40), rng->Uniform(-40, 40)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

// Engines are built with churn so the structure has several buckets, live
// tombstone masks and a non-empty tail — the worst steady-state shape.
void Churn(dyn::DynamicEngine* engine, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) engine->Insert(SmallDiscrete(rng));
  for (int i = 0; i < n / 4; ++i) {
    engine->Erase(static_cast<dyn::Id>(i * 3 % n));
    engine->Insert(SmallDiscrete(rng));
  }
}

// Warm with the exact query set (settles caches and every scratch/output
// capacity), then assert the same queries allocate nothing.
void ExpectZeroAllocQueries(dyn::DynamicEngine* engine,
                            const std::vector<Point2>& queries, double eps) {
  std::vector<Quantification> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (Point2 q : queries) engine->QuantifyInto(q, eps, &out);
  }
  for (Point2 q : queries) {
    int64_t before = util::AllocationCount();
    engine->QuantifyInto(q, eps, &out);
    int64_t delta = util::AllocationCount() - before;
    EXPECT_EQ(delta, 0) << "allocations in a warm query at (" << q.x << ", " << q.y
                        << ")";
    EXPECT_FALSE(out.empty());
  }
}

std::vector<Point2> TestQueries(Rng* rng, int count) {
  std::vector<Point2> qs(count);
  for (auto& q : qs) q = {rng->Uniform(-45, 45), rng->Uniform(-45, 45)};
  return qs;
}

dyn::Options DynOptions(bool monte_carlo) {
  dyn::Options opt;
  opt.engine.seed = 99;
  if (monte_carlo) {
    opt.engine.spiral_budget_fraction = 1e-9;  // Force the MC plan.
    opt.engine.mc_rounds_override = 24;
  }
  return opt;
}

TEST(AllocHotpath, DynamicSpiralQueriesAllocateNothing) {
  Rng rng(501);
  dyn::DynamicEngine engine(DynOptions(false));
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kSpiral);
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
}

TEST(AllocHotpath, DynamicMonteCarloQueriesAllocateNothing) {
  Rng rng(503);
  dyn::DynamicEngine engine(DynOptions(true));
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
  ASSERT_GT(engine.tail_size(), 0u);  // The tail-sample cache is exercised.
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
}

// The tests above repeat their warm-up queries, so with the answer cache
// on they end on cache hits. Here every query is new and the cache is off:
// each one runs the pruned Monte-Carlo scan at the theoretical round count.
// On a thread whose scratch PrewarmWorkerScratch sized, with warm sample
// rows and tail samples, not even the first query allocates.
TEST(AllocHotpath, FreshMonteCarloQueriesOnPrewarmedThreadAllocateNothing) {
  Rng rng(517);
  dyn::Options opt;
  opt.engine.seed = 99;
  opt.answer_cache = false;
  dyn::DynamicEngine engine(opt);
  for (int i = 0; i < 300; ++i) {
    Point2 c{rng.Uniform(-40, 40), rng.Uniform(-40, 40)};
    engine.Insert(UncertainPoint::UniformDisk(c, rng.Uniform(0.5, 3.0)));
  }
  const double eps = 0.2;
  ASSERT_EQ(engine.PlanForQuantify(eps), QuantifyPlan::kMonteCarlo);
  ASSERT_GT(engine.tail_size(), 0u);
  engine.Prewarm(eps);
  size_t rounds = dyn::McRoundsForSnapshot(*engine.snapshot(), opt.engine, eps);
  std::vector<Point2> queries = TestQueries(&rng, 16);
  std::vector<int64_t> deltas;
  std::vector<size_t> sizes;
  std::thread worker([&] {
    dyn::PrewarmWorkerScratch(engine.live_size(), rounds);
    std::vector<Quantification> out;
    out.reserve(engine.live_size());
    deltas.reserve(queries.size());
    sizes.reserve(queries.size());
    for (Point2 q : queries) {
      int64_t before = util::AllocationCount();
      engine.QuantifyInto(q, eps, &out);
      deltas.push_back(util::AllocationCount() - before);
      sizes.push_back(out.size());
    }
  });
  worker.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(deltas[i], 0) << "allocations in fresh query " << i;
    EXPECT_GT(sizes[i], 0u);
  }
}

// NonzeroNN joins Quantify at zero allocations per warm query: stage 1
// runs on scratch-backed kd walks, stage 2 reports through the
// NonzeroNNWithinInto chain into scratch, and the merged ids land in the
// caller's buffer.
void ExpectZeroAllocNonzeroNN(dyn::DynamicEngine* engine,
                              const std::vector<Point2>& queries) {
  std::vector<dyn::Id> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (Point2 q : queries) engine->NonzeroNNInto(q, &out);
  }
  bool any_nonempty = false;
  for (Point2 q : queries) {
    int64_t before = util::AllocationCount();
    engine->NonzeroNNInto(q, &out);
    int64_t delta = util::AllocationCount() - before;
    EXPECT_EQ(delta, 0) << "allocations in a warm NonzeroNN at (" << q.x << ", "
                        << q.y << ")";
    // Empty answers are legitimate (a k=1 point that attains Delta(q)
    // reports nothing under the strict bound); just ensure the workload
    // isn't vacuous overall.
    any_nonempty = any_nonempty || !out.empty();
  }
  EXPECT_TRUE(any_nonempty);
}

TEST(AllocHotpath, DynamicNonzeroNNAllocatesNothing) {
  Rng rng(511);
  dyn::DynamicEngine engine(DynOptions(false));
  Churn(&engine, &rng, 300);
  ASSERT_GT(engine.tail_size(), 0u);
  ExpectZeroAllocNonzeroNN(&engine, TestQueries(&rng, 8));
}

TEST(AllocHotpath, ByteCountersTrackLiveAndPeak) {
  int64_t live_before = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  {
    auto big = std::make_unique<char[]>(1 << 20);
    big[0] = 1;
    EXPECT_GE(util::LiveAllocatedBytes() - live_before, 1 << 20);
    EXPECT_GE(util::PeakAllocatedBytes() - live_before, 1 << 20);
  }
  // Freed: live falls back; the peak remembers.
  EXPECT_LT(util::LiveAllocatedBytes() - live_before, 1 << 20);
  EXPECT_GE(util::PeakAllocatedBytes() - live_before, 1 << 20);
}

// Transient memory of a sliced compaction: the maintenance build reuses
// the gathered live set as the new structure's own storage, so its peak
// must stay below a naive rebuild that copies the live set and builds an
// engine from the copy (live set + structure + copy). This is the
// "live set + one chunk, not 2x the structure" bound in a directly
// measurable form.
TEST(AllocHotpath, SlicedCompactionTransientPeakBounded) {
  Rng rng(515);
  dyn::Options opt = DynOptions(false);
  opt.tail_limit = 64;
  opt.max_dead_fraction = 0.25;
  opt.build_chunk = 512;
  dyn::DynamicEngine engine(opt);
  for (int i = 0; i < 4000; ++i) engine.Insert(SmallDiscrete(&rng));
  engine.WaitForMaintenance();

  // Naive baseline: gather a copy, build a throwaway engine from it.
  UncertainSet live_set = engine.LiveSet(nullptr);
  int64_t live0 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  {
    UncertainSet copy = live_set;
    Engine naive(copy, engine.ReferenceEngineOptions());
  }
  int64_t naive_peak = util::PeakAllocatedBytes() - live0;

  // Sliced maintenance compaction over the same live set: erase a third
  // (crossing max_dead_fraction) to force the full rebuild.
  size_t live = engine.live_size();
  int64_t live1 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  for (size_t i = 0; i < live / 3; ++i) {
    engine.Erase(static_cast<dyn::Id>(i));
  }
  engine.WaitForMaintenance();
  int64_t maintenance_peak = util::PeakAllocatedBytes() - live1;

  EXPECT_GT(maintenance_peak, 0);
  EXPECT_LT(maintenance_peak, naive_peak)
      << "sliced compaction transient (" << maintenance_peak
      << "B) should undercut a copy-and-rebuild (" << naive_peak << "B)";
}

TEST(AllocHotpath, UpdatesInvalidateThenQueriesRewarm) {
  // After an update the first query may allocate (fresh snapshot, tail
  // cache and answer cache); the steady state after it must return to zero.
  Rng rng(509);
  dyn::DynamicEngine engine(DynOptions(true));
  Churn(&engine, &rng, 200);
  std::vector<Point2> queries = TestQueries(&rng, 4);
  ExpectZeroAllocQueries(&engine, queries, 0.1);
  engine.Insert(SmallDiscrete(&rng));
  ExpectZeroAllocQueries(&engine, queries, 0.1);
}

}  // namespace
}  // namespace pnn
