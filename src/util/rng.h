// Seeded pseudo-random number generation used by workload generators,
// samplers and the Monte-Carlo quantifier: Rng, a thin wrapper around
// std::mt19937_64 so every randomized component takes an explicit seed and
// results are reproducible, plus the stateless SplitSeed-based streams
// (SplitSeed, StreamUniform) for draws keyed by a counter.

#ifndef PNN_UTIL_RNG_H_
#define PNN_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace pnn {

/// Deterministic random source. Every randomized algorithm in the library
/// receives one of these explicitly; there is no hidden global state.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal deviate.
  double Gaussian() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derives an independent child generator; useful for splitting one seed
  /// across parallel components without correlation.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives stream `stream` of a base seed via the SplitMix64 finalizer.
/// Unlike Rng::Fork(), the result depends only on (seed, stream) — not on
/// how many values were drawn before the split — so parallel components
/// (Monte-Carlo rounds, batch-executor workers) get decorrelated streams
/// that are reproducible regardless of thread scheduling.
inline uint64_t SplitSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Rng seeded with SplitSeed(seed, stream). Seeding builds a full
/// std::mt19937_64 state (312 words, then a twist on the first draw);
/// where each (seed, round, id) needs only a draw or two, use
/// StreamUniform instead.
inline Rng MakeStreamRng(uint64_t seed, uint64_t stream) {
  return Rng(SplitSeed(seed, stream));
}

/// Draw `k` of the counter-based stream `key`: a uniform double in [0, 1)
/// on the 2^-53 grid, computed statelessly as the top 53 bits of
/// SplitSeed(key, k). The Monte-Carlo samplers key one stream per
/// (seed, round r, point id) as key = SplitSeed(SplitSeed(seed, r), id)
/// and take draws k = 0, 1 from it, so a sample costs two finalizer
/// evaluations instead of one generator seeding, and stays a pure
/// function of (seed, r, id) — the property that lets the dynamic
/// engine's per-bucket sample rows reproduce MonteCarloPNN exactly.
inline double StreamUniform(uint64_t key, uint64_t k) {
  return static_cast<double>(SplitSeed(key, k) >> 11) * 0x1p-53;
}

}  // namespace pnn

#endif  // PNN_UTIL_RNG_H_
