// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Vectorized verification kernels: batched multi-row dot products over the
// row-major phi matrix plus a branch-light accept primitive. These are the
// inner loops of II verification (the dominant query cost, Figures 9-11 of
// the paper), the scan baseline, and key construction in Build/Rebuild.
//
// Dispatch: an AVX2/FMA-unit implementation is selected once at startup
// when (a) the binary was built with the AVX2 translation unit (x86-64 and
// the compiler accepts -mavx2 -mfma; never -march=native), (b) the CPU
// reports avx2+fma, and (c) the PLANAR_DISABLE_SIMD environment variable is
// unset/empty/"0". Otherwise the portable scalar implementation runs.
//
// Determinism contract: every implementation computes the dot product with
// the SAME fixed summation order — four independent partial sums over lanes
// j % 4, reduced as ((s0 + s2) + (s1 + s3)), plus a sequential tail for
// dim % 4 trailing entries — with no FMA contraction of the per-lane
// multiply-adds (the kernel TUs compile with -ffp-contract=off). The scalar
// and AVX2 paths therefore produce bit-identical results; switching
// backends can never change an accepted-id set. This blocked order differs
// from the sequential geometry/vec.h Dot by ordinary rounding
// (O(dim) * 0.5 ulp); key-boundary effects are absorbed by the index's
// epsilon_band guard, which routes near-boundary keys into the verified
// intermediate interval.

#ifndef PLANAR_CORE_KERNELS_KERNELS_H_
#define PLANAR_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace planar {
namespace kernels {

/// Rows processed per verification block. One deadline poll and one
/// residual buffer refill per block, so cancellation stays cooperative
/// without a clock read per row. Power of two, and kept equal to
/// kDeadlineCheckInterval so the polling cadence matches the pre-batched
/// scalar loops.
inline constexpr size_t kBlockRows = 256;

/// The dispatchable kernel set. All functions are pure and thread-safe.
struct DotOps {
  /// dot(a, row) over `dim` entries in the canonical blocked order.
  double (*dot_one)(const double* a, const double* row, size_t dim);

  /// out[i] = dot(a, rows + ids[i] * stride) + bias for i in [0, count).
  /// Gathered form: `ids` selects arbitrary rows of a row-major matrix
  /// based at `rows` with `stride` doubles per row. With bias = -b the
  /// outputs are signed residuals; with bias = a key shift they are keys.
  void (*dot_gather)(const double* a, size_t dim, const double* rows,
                     size_t stride, const uint32_t* ids, size_t count,
                     double bias, double* out);

  /// out[i] = dot(a, rows + (first_row + i) * stride) + bias.
  /// Contiguous form for sequential scans and bulk key construction.
  void (*dot_range)(const double* a, size_t dim, const double* rows,
                    size_t stride, size_t first_row, size_t count,
                    double bias, double* out);

  /// Multi-query form:
  ///
  ///   out[q * out_stride + i] = dot(qs[q], rows + ids[i] * stride)
  ///                             + biases[q]
  ///
  /// for q in [0, num_q), i in [0, count): one gathered block of rows
  /// dotted against `num_q` query vectors at once (cross-query batched
  /// verification, core/batch.cc). The SIMD implementation loads each row
  /// block once and amortizes it across queries (register-blocked
  /// micro-GEMM); per (query, row) the summation order is the canonical
  /// blocked order, so results are bit-identical to num_q separate
  /// dot_gather calls. Requires count <= out_stride.
  void (*dot_block_many)(const double* const* qs, const double* biases,
                         size_t num_q, size_t dim, const double* rows,
                         size_t stride, const uint32_t* ids, size_t count,
                         double* out, size_t out_stride);

  /// Human-readable backend name ("scalar", "avx2").
  const char* name;
};

/// The active kernel set. Dispatch is decided exactly once (first call),
/// honoring the PLANAR_DISABLE_SIMD environment variable.
const DotOps& Ops();

/// The portable scalar implementation (always available; the reference
/// the SIMD paths must match bit-for-bit).
const DotOps& ScalarOps();

/// The AVX2/FMA-unit implementation, or nullptr when the binary was built
/// without it. Exposed so equivalence tests can compare both paths in one
/// process regardless of which one dispatch selected.
const DotOps* Avx2Ops();

/// True iff Ops() is a SIMD implementation.
bool SimdEnabled();

/// Name of the active backend (Ops().name).
const char* BackendName();

/// Branch-light accept: appends ids[i] to out for every i whose residual
/// satisfies the predicate (residual <= 0 when less_equal, else
/// residual >= 0), preserving order, via compress-store (unconditional
/// write + conditional increment — no data-dependent branch). Returns the
/// number of ids stored. `out` must have room for `count` entries and must
/// not alias `ids`. NaN residuals never match, like the scalar comparison.
size_t CompressAccept(const double* residuals, const uint32_t* ids,
                      size_t count, bool less_equal, uint32_t* out);

/// CompressAccept for consecutive ids first_id, first_id + 1, ...
/// (the sequential-scan case, where materializing an id array is waste).
size_t CompressAcceptRange(const double* residuals, uint32_t first_id,
                           size_t count, bool less_equal, uint32_t* out);

/// Per-query CompressAccept over a dot_block_many residual matrix: for
/// each query q in [0, num_q), scans its residual row
/// (residuals + q * residual_stride) over the sub-slice [begin[q], end[q])
/// of the block and scatters the accepted ids — order preserved, no
/// per-row branch — into outs[q], recording the count in kept[q]. The
/// sub-slices let queries whose intermediate interval only partially
/// overlaps a coalesced block skip the foreign rows. outs[q] must have
/// room for end[q] - begin[q] entries and the buffers must be disjoint
/// from `ids` and from each other.
void CompressAcceptMany(const double* residuals, size_t residual_stride,
                        size_t num_q, const uint32_t* ids, const size_t* begin,
                        const size_t* end, const bool* less_equal,
                        uint32_t* const* outs, size_t* kept);

}  // namespace kernels
}  // namespace planar

#endif  // PLANAR_CORE_KERNELS_KERNELS_H_
