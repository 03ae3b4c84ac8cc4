// The Monte-Carlo quantification structure of Section 4.2 (Theorems 4.3
// and 4.5): s random instantiations of P, each preprocessed into a
// certain-point nearest-neighbor structure (Delaunay/Voronoi by default,
// matching the paper; a kd-tree backend is provided for comparison). A
// query locates its NN in every instantiation and reports counts / s,
// which estimates every pi_i(q) within additive eps with probability
// >= 1 - delta when s = O(eps^-2 log(N / delta)).

#ifndef PNN_CORE_PROB_MONTE_CARLO_H_
#define PNN_CORE_PROB_MONTE_CARLO_H_

#include <memory>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/delaunay/delaunay.h"
#include "src/exec/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/uncertain/uncertain_point.h"
#include "src/util/rng.h"

namespace pnn {

/// Monte-Carlo PNN structure. Works for any uncertain-point mix
/// (continuous and/or discrete) since it only needs sampling.
class MonteCarloPNN {
 public:
  enum class Backend { kDelaunay, kKdTree };

  struct Options {
    double eps = 0.1;     // Target additive error.
    double delta = 0.05;  // Failure probability.
    uint64_t seed = 1;
    Backend backend = Backend::kDelaunay;
    size_t rounds_override = 0;  // If nonzero, use exactly this many rounds.
    /// Point i's round-r sample is RoundSample(point i, SplitSeed(seed, r),
    /// id) with id = stream_ids[i] when this is non-empty (size n) and
    /// id = i otherwise. With stream ids a point's instantiations depend
    /// only on (seed, r, its id) — not on its position or on which other
    /// points are in the set — which is what lets the dynamic engine's
    /// per-point sample rows reproduce this structure's samples exactly
    /// under arbitrary insert/erase histories.
    std::vector<uint64_t> stream_ids;
    /// When set, round structures build in parallel across the pool.
    /// Every round's samples and structure depend only on (seed, r), so
    /// the result is bit-identical to the sequential build.
    exec::ThreadPool* build_pool = nullptr;
  };

  MonteCarloPNN(const UncertainSet& points, const Options& options);

  /// Estimates with counts > 0, sorted by index. At most `rounds()`
  /// entries are nonzero; everything else is implicitly 0.
  std::vector<Quantification> Query(Point2 q) const;

  size_t rounds() const { return rounds_; }

  /// The eps this structure was built for (Options::eps).
  double target_eps() const { return target_eps_; }

  /// The theoretical round count s(eps, delta) from Theorem 4.3 for the
  /// given instance size (used by default unless overridden).
  static size_t TheoreticalRounds(size_t n, size_t max_k, double eps, double delta);

  /// Stream `id`'s sample in the round seeded round_seed = SplitSeed(seed,
  /// r): UncertainPoint::SampleAt over draws 0 and 1 of the counter-based
  /// stream keyed SplitSeed(round_seed, id) (StreamUniform, util/rng.h),
  /// so no generator is seeded per sample. The dynamic engine's sample
  /// rows (dyn::ExtendMcRounds) draw through this same definition, which
  /// keeps them bit-identical to this structure's instantiations.
  static Point2 RoundSample(const UncertainPoint& point, uint64_t round_seed,
                            uint64_t id) {
    uint64_t key = SplitSeed(round_seed, id);
    return point.SampleAt(StreamUniform(key, 0), StreamUniform(key, 1));
  }

 private:
  size_t n_ = 0;
  size_t rounds_ = 0;
  double target_eps_ = 0.0;
  Backend backend_;
  std::vector<std::unique_ptr<Delaunay>> delaunay_;
  std::vector<std::unique_ptr<KdTree>> kd_;
};

}  // namespace pnn

#endif  // PNN_CORE_PROB_MONTE_CARLO_H_
