// Differential tests for pnn::api::EngineRef: answers mediated through the
// type-erased QueryRequest/QueryResponse surface must be bit-identical to
// calling the backend's methods directly — on the static and dynamic
// backends, over randomized op streams, pinned and unpinned. Also covers
// Validate() and the status-instead-of-abort contract for requests that
// would PNN_CHECK on the direct path.

#include "src/api/engine_ref.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/workload/generators.h"

namespace pnn {
namespace api {
namespace {

UncertainPoint RandomDiscretePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(2, 4));
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  Point2 c{rng->Uniform(-25, 25), rng->Uniform(-25, 25)};
  for (auto& p : locs) {
    p = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
  }
  return UncertainPoint::Discrete(locs, w);
}

void ExpectIdenticalQuants(const std::vector<Quantification>& got,
                           const std::vector<Quantification>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].probability, want[i].probability);
  }
}

// Asserts EngineRef::Call agrees bit-for-bit with the backend's direct
// methods for every query kind at query point q.
template <typename Backend>
void ExpectAgreesWithDirect(const EngineRef& ref, Backend& direct, Point2 q,
                            std::optional<double> eps, bool exact_ok) {
  QueryResponse r = ref.Call(QueryRequest::NonzeroNN(q));
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.ids, direct.NonzeroNN(q));

  r = ref.Call(QueryRequest::Quantify(q, eps));
  ASSERT_TRUE(r.ok()) << r.message;
  ExpectIdenticalQuants(r.quants, direct.Quantify(q, eps));

  r = ref.Call(QueryRequest::ThresholdNN(q, 0.2, eps));
  ASSERT_TRUE(r.ok()) << r.message;
  ExpectIdenticalQuants(r.quants, direct.ThresholdNN(q, 0.2, eps));

  r = ref.Call(QueryRequest::MostLikelyNN(q, eps));
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.id, direct.MostLikelyNN(q, eps));

  if (exact_ok) {
    r = ref.Call(QueryRequest::QuantifyExact(q));
    ASSERT_TRUE(r.ok()) << r.message;
    ExpectIdenticalQuants(r.quants, direct.QuantifyExact(q));
  }
}

TEST(ApiEngineRef, StaticBackendMatchesDirect) {
  Rng rng(501);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(40, 3, 25, 4, &rng));
  Engine engine(pts);
  EngineRef ref(&engine);
  EXPECT_EQ(ref.backend(), EngineRef::Backend::kStatic);
  EXPECT_FALSE(ref.supports_updates());
  for (int i = 0; i < 40; ++i) {
    Point2 q{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
    ExpectAgreesWithDirect(ref, engine, q, 0.1, /*exact_ok=*/true);
  }
}

TEST(ApiEngineRef, StaticBackendRejectsUpdates) {
  Rng rng(502);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(10, 2, 25, 4, &rng));
  Engine engine(pts);
  EngineRef ref(&engine);
  QueryResponse r = ref.Call(QueryRequest::Insert(RandomDiscretePoint(&rng)));
  EXPECT_EQ(r.status, StatusCode::kUnimplemented);
  r = ref.Call(QueryRequest::Erase(0));
  EXPECT_EQ(r.status, StatusCode::kUnimplemented);
}

// Randomized op stream through EngineRef vs the same stream applied
// directly to a twin backend — ids and every answer must coincide.
TEST(ApiEngineRef, DynamicBackendDifferential) {
  Rng rng(503);
  dyn::Options dopt;
  dopt.engine.seed = 77;
  dopt.engine.mc_rounds_override = 48;
  dopt.tail_limit = 8;
  dyn::DynamicEngine via_ref(dopt);
  dyn::DynamicEngine direct(dopt);
  EngineRef ref(&via_ref);
  EXPECT_TRUE(ref.supports_updates());

  std::vector<dyn::Id> live;
  for (int op = 0; op < 300; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 99));
    if (r < 45 || live.empty()) {
      UncertainPoint p = RandomDiscretePoint(&rng);
      QueryResponse resp = ref.Call(QueryRequest::Insert(p));
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp.id, direct.Insert(p));
      live.push_back(resp.id);
      continue;
    }
    if (r < 65) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      dyn::Id victim = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      QueryResponse resp = ref.Call(QueryRequest::Erase(victim));
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp.id, victim);
      EXPECT_TRUE(direct.Erase(victim));
      // Double-erase reports -1 with kOk, mirroring Erase()'s bool.
      resp = ref.Call(QueryRequest::Erase(victim));
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp.id, -1);
      EXPECT_FALSE(direct.Erase(victim));
      continue;
    }
    Point2 q{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
    ExpectAgreesWithDirect(ref, direct, q, 0.1, /*exact_ok=*/(op % 7 == 0));
  }
}

// A pin captured before queries keeps the whole pinned sequence on one
// state even while the engine keeps mutating underneath.
TEST(ApiEngineRef, PinnedCallsAreStableUnderMutation) {
  Rng rng(505);
  dyn::Options dopt;
  dopt.engine.seed = 77;
  dopt.engine.mc_rounds_override = 48;
  dyn::DynamicEngine engine(dopt);
  for (int i = 0; i < 30; ++i) engine.Insert(RandomDiscretePoint(&rng));
  EngineRef ref(&engine);

  Point2 q{1.5, -2.5};
  EngineRef::Pin pin = ref.Capture();
  QueryResponse before = ref.Call(QueryRequest::Quantify(q, 0.1), pin);
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 20; ++i) engine.Insert(RandomDiscretePoint(&rng));
  QueryResponse after = ref.Call(QueryRequest::Quantify(q, 0.1), pin);
  ASSERT_TRUE(after.ok());
  ExpectIdenticalQuants(after.quants, before.quants);

  // A fresh (unpinned) call sees the mutated state.
  QueryResponse fresh = ref.Call(QueryRequest::Quantify(q, 0.1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.quants.size(), before.quants.size());
}

// Requests that would abort on the direct path come back as statuses.
TEST(ApiEngineRef, InvalidRequestsReturnStatusesNotAborts) {
  Rng rng(506);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(8, 2, 25, 4, &rng));
  Engine engine(pts);
  EngineRef ref(&engine);

  QueryRequest bad_eps = QueryRequest::Quantify({0, 0}, 1.5);
  EXPECT_EQ(ref.Call(bad_eps).status, StatusCode::kInvalidArgument);
  QueryRequest bad_tau = QueryRequest::ThresholdNN({0, 0}, -0.5, 0.1);
  EXPECT_EQ(ref.Call(bad_tau).status, StatusCode::kInvalidArgument);
  QueryRequest bad_q = QueryRequest::NonzeroNN(
      {std::numeric_limits<double>::quiet_NaN(), 0});
  EXPECT_EQ(ref.Call(bad_q).status, StatusCode::kInvalidArgument);

  std::string detail;
  EXPECT_EQ(Validate(bad_eps, &detail), StatusCode::kInvalidArgument);
  EXPECT_FALSE(detail.empty());
  EXPECT_EQ(Validate(QueryRequest::Quantify({0, 0}, 0.05), &detail),
            StatusCode::kOk);
}

// QuantifyExact on a mixed set aborts directly; through the api it is a
// clean kUnimplemented.
TEST(ApiEngineRef, MixedExactIsUnimplementedNotAbort) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{0, 0}, {1, 1}}, {0.5, 0.5}));
  pts.push_back(UncertainPoint::UniformDisk({5, 5}, 1.0));
  Engine engine(pts);
  EngineRef ref(&engine);
  QueryResponse r = ref.Call(QueryRequest::QuantifyExact({0, 0}));
  EXPECT_EQ(r.status, StatusCode::kUnimplemented);
  EXPECT_FALSE(r.message.empty());
}

TEST(ApiEngineRef, EmptyDynamicEngineAnswersEmpty) {
  dyn::Options dopt;
  dyn::DynamicEngine engine(dopt);
  EngineRef ref(&engine);
  QueryResponse r = ref.Call(QueryRequest::NonzeroNN({0, 0}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ids.empty());
  r = ref.Call(QueryRequest::QuantifyExact({0, 0}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.quants.empty());
  r = ref.Call(QueryRequest::MostLikelyNN({0, 0}, 0.1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.id, -1);
}

}  // namespace
}  // namespace api
}  // namespace pnn
