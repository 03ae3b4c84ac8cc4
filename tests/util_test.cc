// Tests for the util module: stats, rng determinism and the counter-based
// Monte-Carlo streams, tables.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/arena.h"
#include "src/util/bench_json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace pnn {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng child = a.Fork();
  // The child stream should not replay the parent stream.
  Rng b(42);
  b.Fork();
  EXPECT_EQ(child.Uniform(0, 1), Rng(42).Fork().Uniform(0, 1));
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    int64_t n = rng.UniformInt(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(Summary, Moments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(LogLogSlope, RecoversExponent) {
  std::vector<std::pair<double, double>> cubic;
  for (double n : {10, 20, 40, 80, 160}) cubic.push_back({n, 7.0 * n * n * n});
  EXPECT_NEAR(LogLogSlope(cubic), 3.0, 1e-9);

  std::vector<std::pair<double, double>> linear;
  for (double n : {10, 20, 40, 80}) linear.push_back({n, 0.5 * n});
  EXPECT_NEAR(LogLogSlope(linear), 1.0, 1e-9);
}

TEST(LogLogSlope, SkipsNonPositive) {
  std::vector<std::pair<double, double>> pts = {
      {0, 5}, {-1, 5}, {10, 0}, {2, 8}, {4, 32}};
  EXPECT_NEAR(LogLogSlope(pts), 2.0, 1e-9);
}

TEST(SplitSeed, DeterministicAndStreamDependent) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(43, 0));
  // Streams of the same seed produce decorrelated draws.
  Rng a = MakeStreamRng(7, 0), b = MakeStreamRng(7, 1);
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    agree += a.UniformInt(0, 9) == b.UniformInt(0, 9);
  }
  EXPECT_LT(agree, 50);
}

// The Monte-Carlo samplers' stream key for (seed, round r, point id).
uint64_t McStreamKey(uint64_t seed, uint64_t r, uint64_t id) {
  return SplitSeed(SplitSeed(seed, r), id);
}

// Pearson correlation of paired draws.
double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  double n = static_cast<double>(a.size());
  double ma = 0, mb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double sab = 0, saa = 0, sbb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

TEST(StreamUniform, UnitIntervalMeanAndVariance) {
  // Draws 0 and 1 of 1024 rounds x 512 ids: 2^20 values.
  double sum = 0, sum_sq = 0;
  size_t n = 0;
  for (uint64_t r = 0; r < 1024; ++r) {
    for (uint64_t id = 0; id < 512; ++id) {
      uint64_t key = McStreamKey(99, r, id);
      for (uint64_t k = 0; k < 2; ++k) {
        double u = StreamUniform(key, k);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        ASSERT_EQ(u * 0x1p53, std::floor(u * 0x1p53));  // On the 2^-53 grid.
        sum += u;
        sum_sq += (u - 0.5) * (u - 0.5);
        ++n;
      }
    }
  }
  double dn = static_cast<double>(n);
  // Var[U] = 1/12 and Var[(U - 1/2)^2] = 1/80 - 1/144 = 1/180.
  EXPECT_NEAR(sum / dn, 0.5, 5.0 * std::sqrt(1.0 / 12.0 / dn));
  EXPECT_NEAR(sum_sq / dn, 1.0 / 12.0, 5.0 * std::sqrt(1.0 / 180.0 / dn));
}

TEST(StreamUniform, NeighbouringKeysAndDrawsAreUncorrelated) {
  // 2^20 pairs each: rounds r / r+1 and ids id / id+1 under one seed, and
  // the two draws a continuous sample takes from one key.
  constexpr uint64_t kRounds = 1024, kIds = 1024;
  std::vector<double> base, next_round, next_id, second_draw;
  for (uint64_t r = 0; r < kRounds; ++r) {
    for (uint64_t id = 0; id < kIds; ++id) {
      uint64_t key = McStreamKey(7, r, id);
      base.push_back(StreamUniform(key, 0));
      second_draw.push_back(StreamUniform(key, 1));
      next_round.push_back(StreamUniform(McStreamKey(7, r + 1, id), 0));
      next_id.push_back(StreamUniform(McStreamKey(7, r, id + 1), 0));
    }
  }
  double bound = 5.0 / std::sqrt(static_cast<double>(base.size()));
  EXPECT_LT(std::abs(Correlation(base, next_round)), bound);
  EXPECT_LT(std::abs(Correlation(base, next_id)), bound);
  EXPECT_LT(std::abs(Correlation(base, second_draw)), bound);
}

TEST(Percentile, MatchesOrderStatistics) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Percentile(&empty, 50), 0.0);
  std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(Percentile(&one, 99), 3.0);
  // The buffer is the caller's scratch: repeated calls reorder it in place
  // (no copies) but every percentile stays exact.
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 87.5), 4.5);  // Interpolates between 4 and 5.
  // The multi-cut API sorts once and agrees with the one-shot calls.
  std::vector<double> w = {5, 1, 4, 2, 3};
  std::vector<double> cuts = Percentiles(&w, {0, 25, 50, 87.5, 100});
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_DOUBLE_EQ(cuts[0], 1.0);
  EXPECT_DOUBLE_EQ(cuts[1], 2.0);
  EXPECT_DOUBLE_EQ(cuts[2], 3.0);
  EXPECT_DOUBLE_EQ(cuts[3], 4.5);
  EXPECT_DOUBLE_EQ(cuts[4], 5.0);
  std::vector<double> none;
  EXPECT_EQ(Percentiles(&none, {50, 99}), (std::vector<double>{0.0, 0.0}));
}

TEST(Table, FormatsWithoutCrashing) {
  Table t({"n", "vertices", "slope"});
  t.AddRow({Table::Int(10), Table::Int(123), Table::Num(2.97)});
  t.AddRow({Table::Int(100), Table::Int(456789), Table::Num(3.01)});
  t.Print();  // Smoke test; output inspected by humans.
  EXPECT_EQ(Table::Int(-5), "-5");
  EXPECT_EQ(Table::Num(2.5, 2), "2.5");
}

TEST(Table, NumKeepsAtLeastFourSignificantDigits) {
  // Precisions below four are raised to four...
  EXPECT_EQ(Table::Num(1.23456, 1), "1.235");
  EXPECT_EQ(Table::Num(0.0123456, 2), "0.01235");
  EXPECT_EQ(Table::Num(63.7468, 0), "63.75");
  // ...large values keep every integer digit instead of "2e+04"...
  EXPECT_EQ(Table::Num(18923.4, 0), "18923");
  EXPECT_EQ(Table::Num(-4567.8, 1), "-4568");
  EXPECT_EQ(Table::Num(9999.7, 2), "10000");
  // ...and higher precisions, trailing-zero trimming and non-finite
  // values behave as %g.
  EXPECT_EQ(Table::Num(3.14159265, 6), "3.14159");
  EXPECT_EQ(Table::Num(2.0, 3), "2");
  EXPECT_EQ(Table::Num(0.0), "0");
  EXPECT_EQ(Table::Num(1e-7, 1), "1e-07");
  EXPECT_EQ(Table::Num(std::numeric_limits<double>::infinity()), "inf");
}

TEST(ScratchVec, PrewarmPreSizesThePool) {
  // A distinct element type keeps this test independent of pools other
  // tests on this thread may have grown.
  struct Marker {
    double payload[2];
  };
  util::ScratchVec<Marker>::Prewarm(2, 512);
  util::ScratchVec<Marker> a;
  util::ScratchVec<Marker> b;  // Nested lease: second pooled buffer.
  EXPECT_GE(a->capacity(), 512u);
  EXPECT_GE(b->capacity(), 512u);
}

TEST(ScratchVec, PrewarmKeepsExistingLargerCapacity) {
  struct Marker2 {
    int payload;
  };
  util::ScratchVec<Marker2>::Prewarm(1, 1024);
  util::ScratchVec<Marker2>::Prewarm(1, 16);  // Must not shrink the buffer.
  util::ScratchVec<Marker2> lease;
  EXPECT_GE(lease->capacity(), 1024u);
}

TEST(BenchJson, SerializesEntriesAndMeta) {
  BenchJson json;
  json.AddMeta("host", "ci \"runner\"");
  json.Add("churn_0.2", {{"ops_per_sec", 12345.5}, {"speedup", 11.0}});
  json.Add("churn_0.5", {{"ops_per_sec", 67890.0}});
  std::string s = json.ToString();
  EXPECT_NE(s.find("\"host\": \"ci \\\"runner\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"churn_0.2\""), std::string::npos);
  EXPECT_NE(s.find("\"ops_per_sec\": 12345.5"), std::string::npos);
  EXPECT_NE(s.find("\"speedup\": 11"), std::string::npos);
  // Entries are comma-separated; the document closes cleanly.
  EXPECT_NE(s.find("}},\n"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
  // Non-finite metrics degrade to null instead of invalid JSON.
  BenchJson bad;
  bad.Add("x", {{"inf", std::numeric_limits<double>::infinity()}});
  EXPECT_NE(bad.ToString().find("\"inf\": null"), std::string::npos);
}

}  // namespace
}  // namespace pnn
