#include "src/core/prob/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {

size_t MonteCarloPNN::TheoreticalRounds(size_t n, size_t max_k, double eps,
                                        double delta) {
  // s = (1 / 2 eps^2) ln(2 n |Q| / delta) with |Q| = O(N^4), N = n k
  // (Lemma 4.1 / Theorem 4.3).
  double big_n = static_cast<double>(n) * std::max<size_t>(max_k, 1);
  double q_count = std::pow(big_n, 4.0) + 1.0;
  double s = std::log(2.0 * n * q_count / delta) / (2.0 * eps * eps);
  return static_cast<size_t>(std::ceil(std::max(s, 1.0)));
}

MonteCarloPNN::MonteCarloPNN(const UncertainSet& points, const Options& options)
    : n_(points.size()), target_eps_(options.eps), backend_(options.backend) {
  PNN_CHECK_MSG(!points.empty(), "MonteCarloPNN needs at least one point");
  PNN_CHECK_MSG(options.eps > 0 && options.eps < 1, "eps must be in (0,1)");
  PNN_CHECK_MSG(options.delta > 0 && options.delta < 1, "delta must be in (0,1)");
  size_t max_k = 1;
  for (const auto& p : points) {
    max_k = std::max(max_k, std::max<size_t>(p.DescriptionComplexity(), 1));
  }
  rounds_ = options.rounds_override > 0
                ? options.rounds_override
                : TheoreticalRounds(n_, max_k, options.eps, options.delta);

  PNN_CHECK_MSG(options.stream_ids.empty() || options.stream_ids.size() == n_,
                "stream_ids must be empty or have one id per point");

  // Each round's instantiation depends only on (seed, r) (RoundSample, see
  // Options::stream_ids), so structures are bit-identical no matter which
  // thread builds them or in what order: the property the parallel batch
  // executor relies on for reproducible Monte-Carlo results, and what
  // makes the round-indexed parallel build below exact.
  if (backend_ == Backend::kDelaunay) {
    delaunay_.resize(rounds_);
  } else {
    kd_.resize(rounds_);
  }
  auto build_round = [&](size_t r) {
    uint64_t round_seed = SplitSeed(options.seed, r);
    std::vector<Point2> instance(n_);
    for (size_t i = 0; i < n_; ++i) {
      uint64_t id = options.stream_ids.empty() ? i : options.stream_ids[i];
      instance[i] = RoundSample(points[i], round_seed, id);
    }
    if (backend_ == Backend::kDelaunay) {
      // The randomized incremental construction takes its seed from the
      // round's generator stream: one seeding per round, not per sample.
      uint64_t dt_seed = MakeStreamRng(options.seed, r).engine()();
      delaunay_[r] = std::make_unique<Delaunay>(instance, dt_seed);
    } else {
      kd_[r] = std::make_unique<KdTree>(std::move(instance));
    }
  };
  exec::MaybeParallelFor(options.build_pool, rounds_, build_round);
}

std::vector<Quantification> MonteCarloPNN::Query(Point2 q) const {
  util::ScratchVec<int> lease;
  std::vector<int>& counts = *lease;
  counts.assign(n_, 0);
  if (backend_ == Backend::kDelaunay) {
    for (const auto& dt : delaunay_) ++counts[dt->Nearest(q)];
  } else {
    for (const auto& kd : kd_) ++counts[kd->Nearest(q)];
  }
  std::vector<Quantification> out;
  for (size_t i = 0; i < n_; ++i) {
    if (counts[i] > 0) {
      out.push_back({static_cast<int>(i),
                     static_cast<double>(counts[i]) / static_cast<double>(rounds_)});
    }
  }
  return out;
}

}  // namespace pnn
