// Portable SIMD kernels for the hot-path linear scans, behind a runtime
// dispatch shim: the scalar implementations are the semantic contract (the
// differential oracle), and the AVX2 implementations are selected once at
// startup via cpuid when the host supports them. See docs/simd.md for the
// kernel inventory and the per-kernel reproducibility contract; the short
// version:
//
//   * SquaredDistScan / DistScan / ArgminScan are
//     BIT-IDENTICAL across dispatch targets. Every floating-point step is
//     an IEEE correctly-rounded operation (sub, mul, add, sqrt — never
//     hypot, never FMA: no kernel TU is compiled with -mfma, and -mavx2
//     alone does not enable contraction), applied per element in both
//     implementations, so lane k of a vector computes exactly the scalar
//     value. The argmin kernel additionally pins the tie-break: first index
//     wins, NaN never wins (the util/stats MinIndex rule).
//   * Product REASSOCIATES (vector lanes accumulate interleaved
//     subsequences). Differential tests compare it against the sequential
//     scalar product to 1e-9 relative, the same contract PR 5 used for
//     reassociated quantify sums.
//
// Dispatch: resolved lazily on first use. PNN_SIMD=off|scalar|0 in the
// environment forces the scalar table (the CI scalar leg); tests flip at
// runtime with ForceScalarForTest. Forcing is for test/bench harnesses
// only — it swaps the table atomically but gives no ordering guarantee to
// queries racing the flip.

#ifndef PNN_UTIL_SIMD_H_
#define PNN_UTIL_SIMD_H_

#include <cstddef>

namespace pnn {
namespace simd {

/// One dispatch target: a named table of kernel entry points. All pointer
/// arguments may alias only as documented (out must not alias xs/ys).
struct Kernels {
  const char* name;  // "scalar" or "avx2" — recorded in bench JSON.

  /// out[i] = fl(fl((xs[i]-qx)^2) + fl((ys[i]-qy)^2)) for i in [0, n).
  void (*sqdist_scan)(const double* xs, const double* ys, size_t n,
                      double qx, double qy, double* out);

  /// out[i] = sqrt of the sqdist_scan value (correctly rounded).
  void (*dist_scan)(const double* xs, const double* ys, size_t n,
                    double qx, double qy, double* out);

  /// Index of the first minimum of v[0, n), scanned in index order with
  /// strict-< updates: ties keep the earliest index, NaN never wins
  /// (pnn::MinIndex in util/stats.h is the one-place statement of the
  /// rule). Returns n with *min_out = +inf when no element beats +inf.
  size_t (*argmin)(const double* v, size_t n, double* min_out);

  /// Product of v[0, n); empty product is 1. REASSOCIATES — 1e-9 contract.
  double (*product)(const double* v, size_t n);
};

/// The active dispatch table (lazily resolved, then cached).
const Kernels& Active();

/// Name of the active table ("scalar" / "avx2"), for logs and bench JSON.
const char* ActiveName();

/// Forces the scalar table (on=true) or re-resolves from cpuid + PNN_SIMD
/// (on=false). Test/bench harness hook; see the header comment.
void ForceScalarForTest(bool on);

/// Internal: the AVX2 table when this build carries it AND the host cpu
/// supports AVX2, else nullptr. Defined in simd_avx2.cc (which compiles to
/// the nullptr stub unless CMake adds -mavx2 to that one file).
const Kernels* Avx2KernelsOrNull();

// Convenience wrappers reading the active table per call. The indirect
// call is noise next to the scan it amortizes (leaf scans are >= kLeafSize
// elements; tail rows are whole live sets).
inline void SquaredDistScan(const double* xs, const double* ys, size_t n,
                            double qx, double qy, double* out) {
  Active().sqdist_scan(xs, ys, n, qx, qy, out);
}
inline void DistScan(const double* xs, const double* ys, size_t n,
                     double qx, double qy, double* out) {
  Active().dist_scan(xs, ys, n, qx, qy, out);
}
inline size_t ArgminScan(const double* v, size_t n, double* min_out) {
  return Active().argmin(v, n, min_out);
}
inline double Product(const double* v, size_t n) {
  return Active().product(v, n);
}

}  // namespace simd
}  // namespace pnn

#endif  // PNN_UTIL_SIMD_H_
