// Differential tests for the pruned Monte-Carlo scan of the dynamic engine
// (MergedMonteCarloQuantifyInto): only Lemma 2.1 candidates —
// MinDistance(q) <= Delta(q), plus a rounding slack — are scanned, over
// cached per-point sample rows. Every case runs at the full theoretical
// round count (no mc_rounds_override, so the sample rows span several
// blocks, the last one partial) and requires bit-identical answers to a
// fresh static Engine, whose Monte-Carlo structure scans every point of
// every round. Covered: uniform disks, exact duplicate discrete locations,
// mixed sets, tombstones, a live tail, a hand-built snapshot without a
// tail-sample cache, and queries placed so that a point's MinDistance is
// within 1e-12 of Delta(q).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/dyn/merge.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace pnn {
namespace dyn {
namespace {

constexpr double kEps = 0.2;

void ExpectSameAnswer(const std::vector<Quantification>& got,
                      const std::vector<Quantification>& want_by_rank,
                      const std::vector<Id>& ids, Point2 q) {
  ASSERT_EQ(got.size(), want_by_rank.size()) << "q = (" << q.x << ", " << q.y << ")";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, ids[want_by_rank[i].index]);
    EXPECT_EQ(got[i].probability, want_by_rank[i].probability);
  }
}

// Quantify through the engine (snapshot, buckets, tail cache) against a
// fresh static Engine over the live set.
void ExpectMatchesStatic(const DynamicEngine& engine, const std::vector<Point2>& queries) {
  ASSERT_EQ(engine.options().engine.mc_rounds_override, 0u);
  ASSERT_EQ(engine.PlanForQuantify(kEps), QuantifyPlan::kMonteCarlo);
  std::vector<Id> ids;
  Engine reference(engine.LiveSet(&ids), engine.ReferenceEngineOptions());
  ASSERT_EQ(reference.PlanForQuantify(kEps), QuantifyPlan::kMonteCarlo);
  for (Point2 q : queries) {
    ExpectSameAnswer(engine.Quantify(q, kEps), reference.Quantify(q, kEps), ids, q);
  }
}

std::vector<Point2> RandomQueries(Rng* rng, int count, double span) {
  std::vector<Point2> qs(count);
  for (Point2& q : qs) q = {rng->Uniform(-span, span), rng->Uniform(-span, span)};
  return qs;
}

UncertainPoint RandomDisk(Rng* rng) {
  return UncertainPoint::UniformDisk({rng->Uniform(-30, 30), rng->Uniform(-30, 30)},
                                     rng->Uniform(0.5, 3.0));
}

// 1-3 locations drawn from a small shared site pool, so many points hold
// exactly the same locations.
UncertainPoint SharedSitesPoint(const std::vector<Point2>& sites, Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs;
  while (static_cast<int>(locs.size()) < k) {
    Point2 s = sites[static_cast<size_t>(rng->UniformInt(0, sites.size() - 1))];
    if (std::find(locs.begin(), locs.end(), s) == locs.end()) locs.push_back(s);
  }
  std::vector<double> w(locs.size(), 1.0 / static_cast<double>(locs.size()));
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

Options McOptions() {
  Options opt;
  opt.engine.seed = 4711;
  return opt;
}

TEST(McPrune, UniformDisksMatchStatic) {
  Rng rng(11);
  Options opt = McOptions();
  opt.tail_limit = 16;  // Several buckets of different sizes.
  DynamicEngine engine(opt);
  for (int i = 0; i < 300; ++i) engine.Insert(RandomDisk(&rng));
  ASSERT_GT(engine.num_buckets(), 1u);
  ExpectMatchesStatic(engine, RandomQueries(&rng, 40, 35));
}

TEST(McPrune, DuplicateDiscreteLocationsMatchStatic) {
  Rng rng(12);
  std::vector<Point2> sites(40);
  for (Point2& s : sites) s = {rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
  Options opt = McOptions();
  opt.engine.spiral_budget_fraction = 1e-9;  // Force the Monte-Carlo plan.
  DynamicEngine engine(opt);
  for (int i = 0; i < 200; ++i) engine.Insert(SharedSitesPoint(sites, &rng));
  // Queries on the sites themselves, where duplicate samples tie exactly.
  std::vector<Point2> queries = RandomQueries(&rng, 20, 25);
  queries.insert(queries.end(), sites.begin(), sites.begin() + 10);
  ExpectMatchesStatic(engine, queries);
}

TEST(McPrune, MixedSetMatchesStatic) {
  Rng rng(13);
  std::vector<Point2> sites(60);
  for (Point2& s : sites) s = {rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
  DynamicEngine engine(McOptions());
  for (int i = 0; i < 300; ++i) {
    engine.Insert(rng.Bernoulli(0.5) ? RandomDisk(&rng) : SharedSitesPoint(sites, &rng));
  }
  ExpectMatchesStatic(engine, RandomQueries(&rng, 40, 35));
}

TEST(McPrune, TombstonedMembersMatchStatic) {
  Rng rng(14);
  Options opt = McOptions();
  opt.max_dead_fraction = 0.6;  // Keep the tombstones instead of compacting.
  DynamicEngine engine(opt);
  std::vector<Id> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(engine.Insert(RandomDisk(&rng)));
  for (size_t i = 0; i < ids.size(); i += 3) ASSERT_TRUE(engine.Erase(ids[i]));
  ASSERT_GT(engine.dead_size(), 0u);
  ExpectMatchesStatic(engine, RandomQueries(&rng, 40, 35));
}

TEST(McPrune, LiveTailMatchesStatic) {
  Rng rng(15);
  Options opt = McOptions();
  opt.tail_limit = 200;
  DynamicEngine engine(opt);
  std::vector<Id> ids;
  for (int i = 0; i < 330; ++i) ids.push_back(engine.Insert(RandomDisk(&rng)));
  ASSERT_TRUE(engine.Erase(ids.back()));  // A dead tail entry, too.
  ASSERT_GT(engine.tail_size(), 50u);
  ExpectMatchesStatic(engine, RandomQueries(&rng, 40, 35));
}

TEST(McPrune, HandBuiltSnapshotWithoutTailCacheMatchesStatic) {
  // No tail_mc: the tail's samples are drawn directly per query.
  Rng rng(16);
  Engine::Options eopt;
  eopt.seed = 4711;
  std::vector<TailEntry> all;
  for (Id id = 0; id < 260; ++id) all.push_back({id, RandomDisk(&rng)});
  auto make_bucket = [&](Id begin, Id end) {
    std::vector<Id> ids;
    UncertainSet pts;
    for (Id id = begin; id < end; ++id) {
      ids.push_back(id);
      pts.push_back(all[id].point);
    }
    return std::make_shared<const Bucket>(std::move(ids), std::move(pts), eopt);
  };
  Snapshot snap;
  std::vector<char> dead(128, 0);
  for (size_t j = 0; j < dead.size(); j += 5) dead[j] = 1;
  auto mask = std::make_shared<const std::vector<char>>(dead);
  size_t live0 = static_cast<size_t>(std::count(dead.begin(), dead.end(), 0));
  snap.buckets.push_back({make_bucket(0, 128), mask, live0});
  snap.buckets.push_back({make_bucket(128, 192), nullptr, 64});
  snap.tail = std::make_shared<const std::vector<TailEntry>>(all.begin() + 192, all.end());
  std::vector<char> tail_dead(snap.tail->size(), 0);
  tail_dead[3] = 1;
  snap.tail_dead = std::make_shared<const std::vector<char>>(tail_dead);
  snap.live_count = snap.buckets[0].live_count + 64 + snap.tail->size() - 1;
  ASSERT_EQ(snap.tail_mc, nullptr);

  std::vector<Id> ids;
  UncertainSet live = SnapshotLiveSet(snap, &ids);
  ASSERT_EQ(live.size(), snap.live_count);
  Engine::Options ropt = eopt;
  ropt.mc_stream_ids.assign(ids.begin(), ids.end());
  Engine reference(live, ropt);
  ASSERT_EQ(reference.PlanForQuantify(kEps), QuantifyPlan::kMonteCarlo);
  size_t rounds = MonteCarloPNN::TheoreticalRounds(live.size(), 1, kEps, eopt.mc_delta);
  for (Point2 q : RandomQueries(&rng, 30, 35)) {
    ExpectSameAnswer(MergedMonteCarloQuantify(snap, q, rounds, eopt.seed),
                     reference.Quantify(q, kEps), ids, q);
  }
}

TEST(McPrune, MinDistanceWithinOneEMinus12OfDeltaMatchesStatic) {
  // Point A attains Delta(q) = MaxDistance_A(q) = 1.5 at q = (0.5, 0); a
  // point B placed at MinDistance_B(q) = Delta(q) -+ 1e-12 is a true
  // candidate just inside the bound (it owns the rounds where A samples
  // far and B near) or a false one just outside (never wins). The
  // rounding slack must keep the first and may keep the second.
  Rng rng(17);
  for (double offset : {-1e-12, 1e-12}) {
    DynamicEngine engine(McOptions());
    // Discrete: A = {(0,0), (-1,0)} (far location at distance 1.5);
    // B = {(2 + offset, 0), (5, 0)} (near location at 1.5 + offset).
    engine.Insert(UncertainPoint::Discrete({{0, 0}, {-1, 0}}, {0.5, 0.5}));
    engine.Insert(UncertainPoint::Discrete({{2 + offset, 0}, {5, 0}}, {0.5, 0.5}));
    // Continuous: disk A radius 1 centered 1 left of q2, so Delta = 2
    // there; disk B radius 1 with MinDistance = 2 + offset.
    Point2 q2{40.5, 40};
    engine.Insert(UncertainPoint::UniformDisk({q2.x - 1, q2.y}, 1.0));
    engine.Insert(UncertainPoint::UniformDisk({q2.x + 3 + offset, q2.y}, 1.0));
    for (int i = 0; i < 150; ++i) {
      Point2 c{rng.Uniform(-30, 30), rng.Uniform(-30, 30) - 60};  // Far away.
      engine.Insert(UncertainPoint::UniformDisk(c, rng.Uniform(0.5, 2.0)));
    }
    ExpectMatchesStatic(engine, {{0.5, 0}, q2});
  }
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
