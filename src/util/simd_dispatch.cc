// Scalar kernel implementations (the semantic contract every other
// dispatch target must reproduce — see src/util/simd.h) and the runtime
// dispatch itself. This TU is compiled with the base architecture flags
// only, so the scalar kernels are exactly what a no-SIMD build executes.

#include "src/util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/util/stats.h"

namespace pnn {
namespace simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void SqDistScanScalar(const double* xs, const double* ys, size_t n,
                      double qx, double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    double dx = xs[i] - qx;
    double dy = ys[i] - qy;
    out[i] = dx * dx + dy * dy;
  }
}

void DistScanScalar(const double* xs, const double* ys, size_t n,
                    double qx, double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    double dx = xs[i] - qx;
    double dy = ys[i] - qy;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

size_t ArgminScalar(const double* v, size_t n, double* min_out) {
  size_t i = MinIndex(v, n);  // The tie-break contract lives in MinIndex.
  if (min_out != nullptr) *min_out = i < n ? v[i] : kInf;
  return i;
}

double ProductScalar(const double* v, size_t n) {
  double p = 1.0;
  for (size_t i = 0; i < n; ++i) p *= v[i];
  return p;
}

const Kernels kScalar = {
    "scalar", SqDistScanScalar, DistScanScalar, ArgminScalar, ProductScalar,
};

const Kernels* Resolve() {
  const char* env = std::getenv("PNN_SIMD");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
       std::strcmp(env, "0") == 0)) {
    return &kScalar;
  }
  if (const Kernels* avx2 = Avx2KernelsOrNull()) return avx2;
  return &kScalar;
}

// Lazily resolved; the unsynchronized first-use race is benign because
// Resolve() is idempotent (pure function of env + cpuid).
std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = Resolve();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const char* ActiveName() { return Active().name; }

void ForceScalarForTest(bool on) {
  g_active.store(on ? &kScalar : Resolve(), std::memory_order_release);
}

}  // namespace simd
}  // namespace pnn
