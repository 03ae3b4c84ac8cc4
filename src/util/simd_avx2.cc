// AVX2 dispatch target. CMake compiles exactly this one TU with -mavx2
// (never -mfma: contraction would break the bit-identity contract in
// simd.h); on toolchains/architectures where that flag is unavailable the
// __AVX2__ guard reduces the file to the nullptr stub and dispatch stays
// scalar. All loads are unaligned (loadu) — the SoA buffers come from
// std::vector with no alignment promise.

#include "src/util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace pnn {
namespace simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-lane squared distance of block i..i+3: every step is the correctly
// rounded vector twin of the scalar kernel's sub/mul/add sequence.
inline __m256d SqDistBlock(const double* xs, const double* ys, size_t i,
                           __m256d qx, __m256d qy) {
  __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), qx);
  __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), qy);
  return _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
}

void SqDistScanAvx2(const double* xs, const double* ys, size_t n,
                    double qx, double qy, double* out) {
  __m256d vqx = _mm256_set1_pd(qx), vqy = _mm256_set1_pd(qy);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, SqDistBlock(xs, ys, i, vqx, vqy));
  }
  for (; i < n; ++i) {
    double dx = xs[i] - qx, dy = ys[i] - qy;
    out[i] = dx * dx + dy * dy;
  }
}

void DistScanAvx2(const double* xs, const double* ys, size_t n,
                  double qx, double qy, double* out) {
  __m256d vqx = _mm256_set1_pd(qx), vqy = _mm256_set1_pd(qy);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(SqDistBlock(xs, ys, i, vqx, vqy)));
  }
  for (; i < n; ++i) {
    double dx = xs[i] - qx, dy = ys[i] - qy;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

// Shared vector-argmin core: per lane, track the first minimum of that
// lane's index subsequence (strict-< blend preserves earlier indices and
// rejects NaN), then reduce lanes picking the smallest index among lanes
// attaining the global minimum — exactly the scalar first-index rule.
// Indices ride as doubles (exact to 2^53, far above any buffer size).
struct LaneMin {
  __m256d val = _mm256_set1_pd(kInf);
  __m256d idx = _mm256_setzero_pd();

  inline void Update(__m256d v, __m256d i) {
    __m256d lt = _mm256_cmp_pd(v, val, _CMP_LT_OQ);
    val = _mm256_blendv_pd(val, v, lt);
    idx = _mm256_blendv_pd(idx, i, lt);
  }

  // Folds the four lanes into (best, best_i). The `*best < kInf` guard on
  // the tie branch keeps never-updated lanes (value +inf, index sentinel 0)
  // from being mistaken for real hits — a genuine all-inf input must report
  // "no index", matching MinIndex.
  inline void Reduce(double* best, size_t* best_i) const {
    double vs[4], is[4];
    _mm256_storeu_pd(vs, val);
    _mm256_storeu_pd(is, idx);
    for (int l = 0; l < 4; ++l) {
      if (vs[l] < *best) {
        *best = vs[l];
        *best_i = static_cast<size_t>(is[l]);
      } else if (vs[l] == *best && *best < kInf &&
                 static_cast<size_t>(is[l]) < *best_i) {
        *best_i = static_cast<size_t>(is[l]);
      }
    }
  }
};

const __m256d kIdxStep = _mm256_set1_pd(4.0);

size_t ArgminAvx2(const double* v, size_t n, double* min_out) {
  double best = kInf;
  size_t best_i = n;
  size_t i = 0;
  if (n >= 8) {
    LaneMin lane;
    __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    for (; i + 4 <= n; i += 4) {
      lane.Update(_mm256_loadu_pd(v + i), idx);
      idx = _mm256_add_pd(idx, kIdxStep);
    }
    lane.Reduce(&best, &best_i);
  }
  for (; i < n; ++i) {
    if (v[i] < best) {
      best = v[i];
      best_i = i;
    }
  }
  if (min_out != nullptr) *min_out = best;
  return best_i;
}

double ProductAvx2(const double* v, size_t n) {
  // Reassociates: four interleaved lane products, folded at the end, then
  // the sequential tail — covered by the 1e-9 differential contract.
  size_t i = 0;
  double p = 1.0;
  if (n >= 8) {
    __m256d acc = _mm256_set1_pd(1.0);
    for (; i + 4 <= n; i += 4) {
      acc = _mm256_mul_pd(acc, _mm256_loadu_pd(v + i));
    }
    double lanes[4];
    _mm256_storeu_pd(lanes, acc);
    p = (lanes[0] * lanes[1]) * (lanes[2] * lanes[3]);
  }
  for (; i < n; ++i) p *= v[i];
  return p;
}

const Kernels kAvx2 = {
    "avx2", SqDistScanAvx2, DistScanAvx2, ArgminAvx2, ProductAvx2,
};

}  // namespace

const Kernels* Avx2KernelsOrNull() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

}  // namespace simd
}  // namespace pnn

#else  // !defined(__AVX2__)

namespace pnn {
namespace simd {

const Kernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace simd
}  // namespace pnn

#endif
