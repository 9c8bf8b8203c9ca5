// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Portable scalar kernels (the canonical blocked-summation reference) and
// the one-time runtime dispatch. This translation unit compiles with
// -ffp-contract=off so the per-lane multiply-adds are never fused into
// FMAs, keeping results bit-identical to the AVX2 path (see kernels.h).

#include "core/kernels/kernels.h"

#include <cstdlib>

namespace planar {
namespace kernels {

namespace {

// The canonical blocked dot product: four partial sums over lanes j % 4,
// reduced as ((s0 + s2) + (s1 + s3)), then a sequential tail. Every SIMD
// implementation must reproduce this order exactly.
double DotOneScalar(const double* a, const double* row, size_t dim) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    s0 += a[j] * row[j];
    s1 += a[j + 1] * row[j + 1];
    s2 += a[j + 2] * row[j + 2];
    s3 += a[j + 3] * row[j + 3];
  }
  double tail = 0.0;
  for (; j < dim; ++j) tail += a[j] * row[j];
  return ((s0 + s2) + (s1 + s3)) + tail;
}

void DotGatherScalar(const double* a, size_t dim, const double* rows,
                     size_t stride, const uint32_t* ids, size_t count,
                     double bias, double* out) {
  // Two-way row unroll: independent accumulation chains for adjacent
  // candidates hide load latency even without vector registers.
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const double* r0 = rows + static_cast<size_t>(ids[i]) * stride;
    const double* r1 = rows + static_cast<size_t>(ids[i + 1]) * stride;
    out[i] = DotOneScalar(a, r0, dim) + bias;
    out[i + 1] = DotOneScalar(a, r1, dim) + bias;
  }
  for (; i < count; ++i) {
    out[i] =
        DotOneScalar(a, rows + static_cast<size_t>(ids[i]) * stride, dim) +
        bias;
  }
}

void DotRangeScalar(const double* a, size_t dim, const double* rows,
                    size_t stride, size_t first_row, size_t count,
                    double bias, double* out) {
  const double* row = rows + first_row * stride;
  for (size_t i = 0; i < count; ++i, row += stride) {
    out[i] = DotOneScalar(a, row, dim) + bias;
  }
}

constexpr DotOps kScalarOps = {&DotOneScalar, &DotGatherScalar,
                               &DotRangeScalar, "scalar"};

bool SimdDisabledByEnv() {
  // Read exactly once, from the dispatch latch below, before any worker
  // threads exist; nothing in the library calls setenv, so the
  // concurrent-getenv hazard clang-tidy guards against cannot arise.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("PLANAR_DISABLE_SIMD");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const DotOps& Dispatch() {
  if (SimdDisabledByEnv()) return kScalarOps;
  const DotOps* avx2 = Avx2Ops();
  if (avx2 != nullptr) return *avx2;
  return kScalarOps;
}

}  // namespace

#if !PLANAR_HAVE_AVX2
const DotOps* Avx2Ops() { return nullptr; }
#endif

const DotOps& ScalarOps() { return kScalarOps; }

const DotOps& Ops() {
  // Dispatch decided once, on first use; thread-safe by C++ static-init
  // rules. Every later call is a single indirection.
  static const DotOps& ops = Dispatch();
  return ops;
}

bool SimdEnabled() { return &Ops() != &kScalarOps; }

const char* BackendName() { return Ops().name; }

size_t CompressAccept(const double* residuals, const uint32_t* ids,
                      size_t count, bool less_equal, uint32_t* out) {
  size_t kept = 0;
  if (less_equal) {
    for (size_t i = 0; i < count; ++i) {
      out[kept] = ids[i];
      kept += static_cast<size_t>(residuals[i] <= 0.0);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      out[kept] = ids[i];
      kept += static_cast<size_t>(residuals[i] >= 0.0);
    }
  }
  return kept;
}

size_t CompressAcceptRange(const double* residuals, uint32_t first_id,
                           size_t count, bool less_equal, uint32_t* out) {
  size_t kept = 0;
  if (less_equal) {
    for (size_t i = 0; i < count; ++i) {
      out[kept] = first_id + static_cast<uint32_t>(i);
      kept += static_cast<size_t>(residuals[i] <= 0.0);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      out[kept] = first_id + static_cast<uint32_t>(i);
      kept += static_cast<size_t>(residuals[i] >= 0.0);
    }
  }
  return kept;
}

}  // namespace kernels
}  // namespace planar
