// Tests for the uncertain-point model: distance extremes, cdfs/pdfs against
// closed forms and Monte-Carlo ground truth, sampling correctness (frozen
// Sample(Rng*) outputs, SampleAt over the counter-based streams).

#include "src/uncertain/uncertain_point.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace pnn {
namespace {

TEST(UncertainPoint, DiskDistanceExtremes) {
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  EXPECT_DOUBLE_EQ(p.MinDistance({10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({10, 0}), 15.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({1, 0}), 0.0);  // Inside the support.
  EXPECT_DOUBLE_EQ(p.MaxDistance({1, 0}), 6.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({0, 0}), 0.0);
}

TEST(UncertainPoint, DiscreteDistanceExtremes) {
  auto p = UncertainPoint::Discrete({{0, 0}, {4, 0}, {0, 3}}, {0.5, 0.25, 0.25});
  EXPECT_DOUBLE_EQ(p.MinDistance({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({4, 3}), 3.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({4, 3}), 5.0);
}

TEST(UncertainPoint, DiscreteWeightsRenormalized) {
  auto p = UncertainPoint::Discrete({{0, 0}, {1, 0}}, {0.5000001, 0.5});
  double total = 0;
  for (double w : p.discrete().weights) total += w;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(UncertainPoint, UniformDiskCdfClosedForm) {
  // Paper Figure 1 setup: disk radius 5 at origin, q = (6, 8); |q| = 10.
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  Point2 q{6, 8};
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 4.9), 0.0);     // Below delta = 5.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 15.0), 1.0);    // Above Delta = 15.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 16.0), 1.0);
  // Monotonicity and continuity.
  double prev = 0.0;
  for (double r = 5.0; r <= 15.0; r += 0.1) {
    double g = p.DistanceCdf(q, r);
    EXPECT_GE(g, prev - 1e-12);
    EXPECT_LE(g, 1.0 + 1e-12);
    prev = g;
  }
}

TEST(UncertainPoint, UniformDiskCdfVsSampling) {
  Rng rng(101);
  auto p = UncertainPoint::UniformDisk({2, 1}, 3);
  Point2 q{7, 2};
  const int kSamples = 200000;
  for (double r : {3.0, 5.0, 7.0}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (Distance(p.Sample(&rng), q) <= r) ++hits;
    }
    EXPECT_NEAR(p.DistanceCdf(q, r), static_cast<double>(hits) / kSamples, 0.01);
  }
}

TEST(UncertainPoint, UniformDiskPdfIntegratesToCdf) {
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  Point2 q{6, 8};
  // Numerically integrate the pdf and compare against the cdf.
  double acc = 0.0;
  const int kSteps = 20000;
  double lo = 5.0, hi = 15.0;
  for (int i = 0; i < kSteps; ++i) {
    double r = lo + (hi - lo) * (i + 0.5) / kSteps;
    acc += p.DistancePdf(q, r) * (hi - lo) / kSteps;
    if (i % 4000 == 3999) {
      double r_end = lo + (hi - lo) * (i + 1) / kSteps;
      EXPECT_NEAR(acc, p.DistanceCdf(q, r_end), 2e-3);
    }
  }
  EXPECT_NEAR(acc, 1.0, 1e-3);
}

TEST(UncertainPoint, GaussianCdfVsSampling) {
  Rng rng(103);
  auto p = UncertainPoint::TruncatedGaussian({1, -1}, 4.0, 1.5);
  Point2 q{4, 1};
  const int kSamples = 200000;
  for (double r : {1.5, 3.5, 6.0}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (Distance(p.Sample(&rng), q) <= r) ++hits;
    }
    EXPECT_NEAR(p.DistanceCdf(q, r), static_cast<double>(hits) / kSamples, 0.01);
  }
}

TEST(UncertainPoint, GaussianSamplesStayInSupport) {
  Rng rng(105);
  auto p = UncertainPoint::TruncatedGaussian({0, 0}, 2.0, 5.0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(Norm(p.Sample(&rng)), 2.0 + 1e-12);
  }
}

TEST(UncertainPoint, GaussianWideSigmaApproachesUniform) {
  // sigma >> R: truncated Gaussian converges to the uniform disk.
  auto g = UncertainPoint::TruncatedGaussian({0, 0}, 2.0, 1e9);
  auto u = UncertainPoint::UniformDisk({0, 0}, 2.0);
  Point2 q{3, 0};
  for (double r : {1.2, 2.0, 3.0, 4.0}) {
    EXPECT_NEAR(g.DistanceCdf(q, r), u.DistanceCdf(q, r), 1e-6) << "r=" << r;
  }
}

TEST(UncertainPoint, DiscreteCdfStepFunction) {
  auto p = UncertainPoint::Discrete({{1, 0}, {3, 0}, {6, 0}}, {0.2, 0.3, 0.5});
  Point2 q{0, 0};
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 1.0), 0.2);  // Closed: includes r = d.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 2.9), 0.2);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 100.0), 1.0);
}

TEST(UncertainPoint, DiscreteSamplingFrequencies) {
  Rng rng(107);
  auto p = UncertainPoint::Discrete({{0, 0}, {1, 0}, {2, 0}}, {0.6, 0.3, 0.1});
  int counts[3] = {0, 0, 0};
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    Point2 s = p.Sample(&rng);
    counts[static_cast<int>(s.x + 0.5)]++;
  }
  EXPECT_NEAR(counts[0] / double(kSamples), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / double(kSamples), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / double(kSamples), 0.1, 0.01);
}

// FNV-1a step over the bit pattern of one double.
uint64_t MixBits(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Sample(Rng*) feeds SampleAt one (discrete) or two (continuous) Uniform
// draws. Workload generators, DiscretizeContinuous and the serving
// benchmark's inputs all draw through it, so its outputs are frozen: the
// first three samples and an FNV-1a digest of all 1024 were recorded from
// the implementation before SampleAt existed.
TEST(UncertainPoint, SampleOutputsAreFrozen) {
  struct Case {
    UncertainPoint point;
    uint64_t seed;
    int draws_per_sample;
    Point2 first[3];
    uint64_t digest;
  };
  const Case cases[] = {
      {UncertainPoint::Discrete({{0, 0}, {3, 1}, {-2, 4}, {1, -5}}, {0.1, 0.2, 0.3, 0.4}),
       20260,
       1,
       {{-0x1p+1, 0x1p+2}, {0x0p+0, 0x0p+0}, {0x1p+0, -0x1.4p+2}},
       0xc3295a3827a2ed05ull},
      {UncertainPoint::UniformDisk({2, -1}, 3),
       20261,
       2,
       {{-0x1.ab7718442107p-3, -0x1.4148043ee24c2p+1},
        {0x1.afd1e8a35c4c2p+0, -0x1.352147ab7ba84p-1},
        {0x1.cf59f1d02374ep+1, 0x1.23e602e92eefep+0}},
       0x6b23397dc1d38a10ull},
      {UncertainPoint::TruncatedGaussian({-1, 2}, 4, 1.5),
       20262,
       2,
       {{-0x1.d349e4530479dp-1, 0x1.a7ade063b125dp+0},
        {0x1.b27e5c01af69p-1, 0x1.2beeba45224f4p+1},
        {-0x1.0a7cdb6775506p-2, 0x1.bfcc53973863ap+0}},
       0xdf62e20ddea131c5ull},
  };
  constexpr int kSamples = 1024;
  for (const Case& c : cases) {
    Rng rng(c.seed);
    uint64_t digest = 0xcbf29ce484222325ull;
    for (int i = 0; i < kSamples; ++i) {
      Point2 p = c.point.Sample(&rng);
      if (i < 3) {
        EXPECT_EQ(p.x, c.first[i].x) << "seed " << c.seed << " sample " << i;
        EXPECT_EQ(p.y, c.first[i].y) << "seed " << c.seed << " sample " << i;
      }
      digest = MixBits(MixBits(digest, p.x), p.y);
    }
    EXPECT_EQ(digest, c.digest) << "seed " << c.seed;
    // Each sample consumed exactly draws_per_sample uniforms.
    Rng twin(c.seed);
    for (int i = 0; i < kSamples * c.draws_per_sample; ++i) twin.Uniform(0.0, 1.0);
    EXPECT_EQ(rng.Uniform(0.0, 1.0), twin.Uniform(0.0, 1.0)) << "seed " << c.seed;
  }
}

// Chi-square statistic of bin counts against expected probabilities.
double ChiSquare(const std::vector<int64_t>& counts, const std::vector<double>& probs) {
  double n = 0;
  for (int64_t c : counts) n += static_cast<double>(c);
  double chi2 = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    double expect = n * probs[b];
    double diff = static_cast<double>(counts[b]) - expect;
    chi2 += diff * diff / expect;
  }
  return chi2;
}

// SampleAt over the Monte-Carlo samplers' counter-based streams (keys
// SplitSeed(SplitSeed(seed, r), id), draws 0 and 1) reproduces each pdf:
// the radial cdf and the angle of the disk pdfs, and the discrete weights.
// 2^20 samples each, chi-square on fixed bins against the upper 1e-6
// quantile of the chi-square law.
TEST(UncertainPoint, SampleAtOverStreamsMatchesPdfs) {
  constexpr int kBins = 20;
  constexpr double kChi2Crit19 = 63.68;  // 19 degrees of freedom.
  constexpr double kChi2Crit3 = 30.66;   // 3 degrees of freedom.
  const double sigma = 1.5, radius = 4.0;
  auto disk = UncertainPoint::UniformDisk({2, -1}, 3);
  auto gauss = UncertainPoint::TruncatedGaussian({-1, 2}, radius, sigma);
  auto discrete =
      UncertainPoint::Discrete({{0, 0}, {1, 0}, {2, 0}, {3, 0}}, {0.1, 0.2, 0.3, 0.4});
  auto bin = [&](double f) { return std::min(kBins - 1, static_cast<int>(f * kBins)); };
  auto angle_bin = [&](Point2 p, Point2 c) {
    return bin((std::atan2(p.y - c.y, p.x - c.x) + M_PI) / (2.0 * M_PI));
  };
  double gauss_norm = 1.0 - std::exp(-radius * radius / (2 * sigma * sigma));
  std::vector<int64_t> disk_r(kBins), disk_theta(kBins), gauss_r(kBins),
      gauss_theta(kBins), discrete_counts(4);
  for (uint64_t r = 0; r < 1024; ++r) {
    for (uint64_t id = 0; id < 1024; ++id) {
      uint64_t key = SplitSeed(SplitSeed(31, r), id);
      double u = StreamUniform(key, 0), v = StreamUniform(key, 1);
      Point2 p = disk.SampleAt(u, v);
      double rho = Distance(p, {2, -1});
      ++disk_r[bin(rho * rho / 9.0)];
      ++disk_theta[angle_bin(p, {2, -1})];
      p = gauss.SampleAt(u, v);
      rho = Distance(p, {-1, 2});
      ++gauss_r[bin((1.0 - std::exp(-rho * rho / (2 * sigma * sigma))) / gauss_norm)];
      ++gauss_theta[angle_bin(p, {-1, 2})];
      ++discrete_counts[static_cast<int>(discrete.SampleAt(u, v).x + 0.5)];
    }
  }
  std::vector<double> equal(kBins, 1.0 / kBins);
  EXPECT_LT(ChiSquare(disk_r, equal), kChi2Crit19);
  EXPECT_LT(ChiSquare(disk_theta, equal), kChi2Crit19);
  EXPECT_LT(ChiSquare(gauss_r, equal), kChi2Crit19);
  EXPECT_LT(ChiSquare(gauss_theta, equal), kChi2Crit19);
  EXPECT_LT(ChiSquare(discrete_counts, {0.1, 0.2, 0.3, 0.4}), kChi2Crit3);
}

TEST(UncertainPoint, ExpectedDistanceDiscrete) {
  auto p = UncertainPoint::Discrete({{3, 0}, {0, 4}}, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(p.ExpectedDistance({0, 0}), 3.5);
}

TEST(UncertainPoint, ExpectedDistanceUniformDiskVsSampling) {
  Rng rng(109);
  auto p = UncertainPoint::UniformDisk({0, 0}, 2.0);
  Point2 q{5, 0};
  double acc = 0.0;
  const int kSamples = 400000;
  for (int i = 0; i < kSamples; ++i) acc += Distance(p.Sample(&rng), q);
  EXPECT_NEAR(p.ExpectedDistance(q), acc / kSamples, 5e-3);
}

TEST(UncertainPoint, BoundsAndCentroid) {
  auto d = UncertainPoint::UniformDisk({1, 2}, 3);
  Box2 b = d.Bounds();
  EXPECT_DOUBLE_EQ(b.xmin, -2);
  EXPECT_DOUBLE_EQ(b.ymax, 5);
  EXPECT_DOUBLE_EQ(d.Centroid().x, 1);

  auto p = UncertainPoint::Discrete({{0, 0}, {4, 0}}, {0.25, 0.75});
  EXPECT_DOUBLE_EQ(p.Centroid().x, 3.0);
  EXPECT_DOUBLE_EQ(p.Bounds().xmax, 4.0);
}

TEST(NonzeroNNBruteForce, SimpleConfigurations) {
  // Two far-apart disks: each is the sole nonzero NN near itself.
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 1));
  pts.push_back(UncertainPoint::UniformDisk({100, 0}, 1));
  EXPECT_EQ(NonzeroNNBruteForce(pts, {0, 0}), (std::vector<int>{0}));
  EXPECT_EQ(NonzeroNNBruteForce(pts, {100, 0}), (std::vector<int>{1}));
  // Near the middle both are possible NNs.
  EXPECT_EQ(NonzeroNNBruteForce(pts, {50, 0}), (std::vector<int>{0, 1}));
}

TEST(NonzeroNNBruteForce, OverlappingDisksAlwaysBoth) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 2));
  pts.push_back(UncertainPoint::UniformDisk({1, 0}, 2));
  // Overlapping disks: delta_i < Delta_j everywhere nearby.
  for (double x : {-3.0, 0.0, 0.5, 4.0}) {
    EXPECT_EQ(NonzeroNNBruteForce(pts, {x, 0}).size(), 2u) << "x=" << x;
  }
}

TEST(UncertainPointDeath, RejectsInvalidInputs) {
  EXPECT_DEATH(UncertainPoint::UniformDisk({0, 0}, 0.0), "radius");
  EXPECT_DEATH(UncertainPoint::Discrete({{0, 0}}, {0.5}), "sum to 1");
  EXPECT_DEATH(UncertainPoint::Discrete({{0, 0}, {1, 1}}, {1.5, -0.5}), "positive");
  EXPECT_DEATH(UncertainPoint::Discrete({}, {}), "location");
}

}  // namespace
}  // namespace pnn
