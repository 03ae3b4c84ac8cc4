// The Monte-Carlo guarantee of Theorem 4.3, checked through the engines'
// entry paths rather than MonteCarloPNN alone: with s = TheoreticalRounds
// instantiations, every estimate is within eps of the exact pi_i(q) with
// probability >= 1 - delta. Small discrete instances over 240 seeds, each
// answered by a static Engine and by a DynamicEngine (whose sample streams
// are keyed by ids that differ from the static engine's positions), both
// forced onto the Monte-Carlo plan at full rounds and compared against
// QuantifyExact. The share of (seed, query) pairs with any error above eps
// must stay <= delta.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

constexpr double kEps = 0.15;
constexpr double kDelta = 0.05;
constexpr int kSeeds = 240;
constexpr int kQueriesPerSeed = 4;
constexpr int kPoints = 6;

UncertainPoint RandomDiscretePoint(Rng* rng) {
  Point2 c{rng->Uniform(-6, 6), rng->Uniform(-6, 6)};
  std::vector<Point2> locs(3);
  std::vector<double> w(3);
  for (int j = 0; j < 3; ++j) {
    locs[j] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
    w[j] = rng->Uniform(0.2, 1.0);
  }
  double total = w[0] + w[1] + w[2];
  for (double& x : w) x /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

Engine::Options McEngineOptions(uint64_t seed) {
  Engine::Options opt;
  opt.seed = seed;
  opt.default_eps = kEps;
  opt.mc_delta = kDelta;
  opt.spiral_budget_fraction = 1e-9;  // Force the Monte-Carlo plan.
  return opt;
}

// Largest |estimate - exact| over the points; `index` maps an answer's
// index to a position in `exact` order.
template <typename IndexFn>
double MaxError(const std::vector<Quantification>& estimate,
                const std::vector<Quantification>& exact, IndexFn index) {
  std::vector<double> e(kPoints, 0.0), g(kPoints, 0.0);
  for (const auto& x : exact) e[x.index] = x.probability;
  for (const auto& x : estimate) g[index(x.index)] = x.probability;
  double err = 0;
  for (int i = 0; i < kPoints; ++i) err = std::max(err, std::abs(e[i] - g[i]));
  return err;
}

TEST(McContract, StaticAndDynamicEnginesHoldEpsDelta) {
  int static_failures = 0, dynamic_failures = 0, pairs = 0;
  double largest_error = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(1000 + seed);
    UncertainSet points;
    for (int i = 0; i < kPoints; ++i) points.push_back(RandomDiscretePoint(&rng));
    Engine engine(points, McEngineOptions(seed));
    ASSERT_EQ(engine.PlanForQuantify(kEps), QuantifyPlan::kMonteCarlo);

    // Decoys inserted and erased first shift the live ids (and so every
    // sample stream) away from the static engine's positions; a small
    // tail limit spreads the live points over several buckets.
    dyn::Options dopt;
    dopt.engine = McEngineOptions(seed);
    dopt.tail_limit = 2;
    dyn::DynamicEngine dynamic(dopt);
    std::vector<dyn::Id> decoys;
    for (int i = 0; i < 3; ++i) decoys.push_back(dynamic.Insert(RandomDiscretePoint(&rng)));
    std::vector<dyn::Id> ids;
    for (const UncertainPoint& p : points) ids.push_back(dynamic.Insert(p));
    for (dyn::Id id : decoys) ASSERT_TRUE(dynamic.Erase(id));
    ASSERT_EQ(dynamic.PlanForQuantify(kEps), QuantifyPlan::kMonteCarlo);
    auto position = [&](int id) {
      return static_cast<int>(std::find(ids.begin(), ids.end(), id) - ids.begin());
    };

    for (int t = 0; t < kQueriesPerSeed; ++t) {
      Point2 q{rng.Uniform(-9, 9), rng.Uniform(-9, 9)};
      std::vector<Quantification> exact = engine.QuantifyExact(q);
      double s = MaxError(engine.Quantify(q, kEps), exact, [](int i) { return i; });
      double d = MaxError(dynamic.Quantify(q, kEps), exact, position);
      static_failures += s > kEps;
      dynamic_failures += d > kEps;
      largest_error = std::max({largest_error, s, d});
      ++pairs;
    }
  }
  // The estimates are genuinely random (not exact), yet within the bound.
  EXPECT_GT(largest_error, 0.0);
  EXPECT_LE(static_failures, kDelta * pairs) << "of " << pairs << " (seed, query) pairs";
  EXPECT_LE(dynamic_failures, kDelta * pairs) << "of " << pairs << " (seed, query) pairs";
}

}  // namespace
}  // namespace pnn
