// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// AVX2 kernels. This translation unit alone compiles with -mavx2 -mfma
// -ffp-contract=off (set in src/core/CMakeLists.txt; committed build files
// must never use -march=native — see CONTRIBUTING.md); nothing here runs
// unless Avx2Ops() verified cpuid support at dispatch time, so the rest of
// the binary stays runnable on any x86-64.
//
// Bit-identical contract (kernels.h): the vector accumulator's lane l holds
// the partial sum over indices j % 4 == l using per-lane IEEE mul then add
// (no FMA contraction of these two ops), and the horizontal reduction
// computes ((s0 + s2) + (s1 + s3)) — exactly the scalar reference. The FMA
// unit still buys the throughput win: vmulpd/vaddpd dual-issue on the FMA
// ports, and processing four rows per iteration keeps all chains busy.

#include "core/kernels/kernels.h"

#if PLANAR_HAVE_AVX2

#include <immintrin.h>

namespace planar {
namespace kernels {

namespace {

// Reduces a 4-lane accumulator as ((s0 + s2) + (s1 + s3)).
inline double ReduceBlocked(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);       // [s0, s1]
  const __m128d hi = _mm256_extractf128_pd(acc, 1);     // [s2, s3]
  const __m128d pair = _mm_add_pd(lo, hi);              // [s0+s2, s1+s3]
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);  // [s1+s3, s1+s3]
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

// Sequential tail for dim % 4 trailing entries, same order as the scalar
// reference's tail loop.
inline double TailDot(const double* a, const double* row, size_t from,
                      size_t dim) {
  double tail = 0.0;
  for (size_t j = from; j < dim; ++j) tail += a[j] * row[j];
  return tail;
}

double DotOneAvx2(const double* a, const double* row, size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(row + j)));
  }
  return ReduceBlocked(acc) + TailDot(a, row, j, dim);
}

// Four rows per iteration: independent accumulation chains per row hide
// the add latency; the shared query vector loads are hoisted by the
// compiler across the row group.
void DotGatherAvx2(const double* a, size_t dim, const double* rows,
                   size_t stride, const uint32_t* ids, size_t count,
                   double bias, double* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* r0 = rows + static_cast<size_t>(ids[i]) * stride;
    const double* r1 = rows + static_cast<size_t>(ids[i + 1]) * stride;
    const double* r2 = rows + static_cast<size_t>(ids[i + 2]) * stride;
    const double* r3 = rows + static_cast<size_t>(ids[i + 3]) * stride;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const __m256d av = _mm256_loadu_pd(a + j);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(r0 + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(r1 + j)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(av, _mm256_loadu_pd(r2 + j)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(av, _mm256_loadu_pd(r3 + j)));
    }
    out[i] = ReduceBlocked(acc0) + TailDot(a, r0, j, dim) + bias;
    out[i + 1] = ReduceBlocked(acc1) + TailDot(a, r1, j, dim) + bias;
    out[i + 2] = ReduceBlocked(acc2) + TailDot(a, r2, j, dim) + bias;
    out[i + 3] = ReduceBlocked(acc3) + TailDot(a, r3, j, dim) + bias;
  }
  for (; i < count; ++i) {
    out[i] =
        DotOneAvx2(a, rows + static_cast<size_t>(ids[i]) * stride, dim) +
        bias;
  }
}

void DotRangeAvx2(const double* a, size_t dim, const double* rows,
                  size_t stride, size_t first_row, size_t count, double bias,
                  double* out) {
  const double* row = rows + first_row * stride;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* r0 = row;
    const double* r1 = row + stride;
    const double* r2 = row + 2 * stride;
    const double* r3 = row + 3 * stride;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const __m256d av = _mm256_loadu_pd(a + j);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(r0 + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(r1 + j)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(av, _mm256_loadu_pd(r2 + j)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(av, _mm256_loadu_pd(r3 + j)));
    }
    out[i] = ReduceBlocked(acc0) + TailDot(a, r0, j, dim) + bias;
    out[i + 1] = ReduceBlocked(acc1) + TailDot(a, r1, j, dim) + bias;
    out[i + 2] = ReduceBlocked(acc2) + TailDot(a, r2, j, dim) + bias;
    out[i + 3] = ReduceBlocked(acc3) + TailDot(a, r3, j, dim) + bias;
    row += 4 * stride;
  }
  for (; i < count; ++i, row += stride) {
    out[i] = DotOneAvx2(a, row, dim) + bias;
  }
}

constexpr DotOps kAvx2Ops = {&DotOneAvx2, &DotGatherAvx2, &DotRangeAvx2,
                             "avx2"};

}  // namespace

const DotOps* Avx2Ops() {
  // cpuid checked once; the TU being compiled does not imply the CPU runs
  // AVX2 (the binary must start on any x86-64).
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &kAvx2Ops : nullptr;
}

}  // namespace kernels
}  // namespace planar

#endif  // PLANAR_HAVE_AVX2
