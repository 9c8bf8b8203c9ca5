// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The naive sequential-scan baseline the paper compares against
// (Section 7.1, "Competing Method"): O(n d') for the inequality query and
// O(n d' + n log k) for the top-k query.
//
// Also the home of VerifyRows, the one single-query verify loop: the
// scan, the ingest delta scan and every PlanarIndex query kind
// evaluate <a, phi(x)> through it (DESIGN.md section 5d).

#ifndef PLANAR_CORE_SCAN_H_
#define PLANAR_CORE_SCAN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "core/aggregate.h"
#include "core/kernels/kernels.h"
#include "core/planar_index.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/topk.h"

namespace planar {

/// The rows VerifyRows reads: `count` rows of the row-major matrix at
/// `rows` (`stride` doubles per row). Either a rank-id span (the index
/// II: row ids[i], carrying id ids[i]) or, with ids == nullptr, the
/// contiguous rows [0, count) carrying ids id_offset + i (the full scan
/// and the ingest delta scan).
struct VerifySource {
  const double* rows = nullptr;
  size_t stride = 0;
  size_t count = 0;
  const uint32_t* ids = nullptr;
  uint32_t id_offset = 0;
};

/// One verified block, as VerifyRows hands it to its sink: residuals[i]
/// = <a, row i> - b for the `size` rows whose ids are ids[i] (or
/// first_id + i for a contiguous source).
struct VerifiedBlock {
  const double* residuals = nullptr;
  const uint32_t* ids = nullptr;
  uint32_t first_id = 0;
  size_t size = 0;
  bool less_equal = true;

  uint32_t Id(size_t i) const {
    return ids != nullptr ? ids[i] : first_id + static_cast<uint32_t>(i);
  }
  /// Compress-stores the ids of the satisfying rows into `out` (room for
  /// `size`) in row order; returns how many.
  size_t Accept(uint32_t* out) const {
    return ids != nullptr ? kernels::CompressAccept(residuals, ids, size,
                                                    less_equal, out)
                          : kernels::CompressAcceptRange(
                                residuals, first_id, size, less_equal, out);
  }
  /// Accept for positions in the block instead of ids.
  size_t AcceptPositions(uint32_t* out) const {
    return kernels::CompressAcceptRange(residuals, 0, size, less_equal, out);
  }
};

/// Sink: appends the satisfying ids to `*out` in row order. A block
/// grows the vector only by its matches, so a caller that reserved the
/// worst case up front never reallocates, and one appending to a full
/// vector (the ingest delta scan) reallocates only when a row matches.
struct AppendIds {
  std::vector<uint32_t>* out = nullptr;

  void Take(const VerifiedBlock& block) {
    uint32_t kept_ids[kernels::kBlockRows];
    out->insert(out->end(), kept_ids, kept_ids + block.Accept(kept_ids));
  }
};

/// Sink: counts verified and satisfying rows and, when `payload` is set,
/// adds the satisfying rows' payloads (the payload of id i is
/// payload[i * stride]) through the canonical blocked summation, one
/// block total at a time in block order.
struct CountAccepts {
  const double* payload = nullptr;
  size_t stride = 0;
  size_t verified = 0;
  size_t accepted = 0;
  double sum = 0.0;

  void Take(const VerifiedBlock& block) {
    uint32_t kept_ids[kernels::kBlockRows];
    const size_t kept = block.Accept(kept_ids);
    verified += block.size;
    accepted += kept;
    if (payload == nullptr || kept == 0) return;
    double vals[kernels::kBlockRows];
    for (size_t i = 0; i < kept; ++i) {
      vals[i] = payload[static_cast<size_t>(kept_ids[i]) * stride];
    }
    // agg-ok: per-block payload totals go through the canonical helper
    // and accumulate in block order, so a sum is deterministic for a
    // fixed row order.
    sum += CanonicalBlockedSum(vals, kept);
  }
};

/// Sink: offers every satisfying row to `*buffer` at its hyperplane
/// distance |residual| / norm_a (norm_a > 0), in row order.
struct OfferNearest {
  TopKBuffer* buffer = nullptr;
  double norm_a = 0.0;

  void Take(const VerifiedBlock& block) {
    uint32_t pos[kernels::kBlockRows];
    const size_t kept = block.AcceptPositions(pos);
    for (size_t i = 0; i < kept; ++i) {
      buffer->Insert(block.Id(pos[i]),
                     std::fabs(block.residuals[pos[i]]) / norm_a);
    }
  }
};

/// The stop predicate of a loop that always runs to the end.
struct NeverStop {
  bool operator()(size_t) const { return false; }
};

/// The one verify loop: evaluates <a, row> cmp b for every row of
/// `source` and feeds each block of kernels::kBlockRows rows to
/// `sink.Take`. Per block, in order: `stop(rows verified so far)` (true
/// ends the loop early: COUNT/SUM within tolerance), one deadline poll,
/// one residual kernel call (dot_gather for ids, dot_range for a
/// contiguous range), then the sink. `Query` is a ScalarProductQuery or
/// a NormalizedQuery. Returns false iff the deadline expired, so an
/// expired request verifies nothing.
template <typename Query, typename Sink, typename Stop = NeverStop>
bool VerifyRows(const Query& q, const VerifySource& source,
                const Deadline& deadline, Sink& sink,
                const Stop& stop = Stop()) {
  const kernels::DotOps& ops = kernels::Ops();
  const bool le = q.cmp == Comparison::kLessEqual;
  double residuals[kernels::kBlockRows];
  for (size_t off = 0; off < source.count; off += kernels::kBlockRows) {
    if (stop(off)) return true;
    if (deadline.Expired()) return false;
    const size_t blk = std::min(kernels::kBlockRows, source.count - off);
    const uint32_t* ids = source.ids != nullptr ? source.ids + off : nullptr;
    if (ids != nullptr) {
      ops.dot_gather(q.a.data(), q.a.size(), source.rows, source.stride, ids,
                     blk, -q.b, residuals);
    } else {
      ops.dot_range(q.a.data(), q.a.size(), source.rows, source.stride, off,
                    blk, -q.b, residuals);
    }
    sink.Take(VerifiedBlock{residuals, ids,
                            source.id_offset + static_cast<uint32_t>(off),
                            blk, le});
  }
  return true;
}

/// Scan-verifies `count` row-major rows of width `dim` starting at `rows`,
/// appending the id `id_offset + i` of every row i that satisfies `q` to
/// `*out` through VerifyRows, so the accept decision per row is
/// bit-identical to the full-matrix scan and the index paths. Exposed raw
/// so the delta part of an ingest epoch (core/sharded.cc) can verify
/// not-yet-merged rows; returns the number of ids appended, or
/// kDeadlineExceeded.
Result<size_t> ScanRowsInequality(const double* rows, size_t dim, size_t count,
                                  uint32_t id_offset,
                                  const ScalarProductQuery& q,
                                  const Deadline& deadline,
                                  std::vector<uint32_t>* out);

/// Counting form of ScanRowsInequality: how many of the `count` rows
/// satisfy `q`, bit-equal to ScanRowsInequality(...)'s appended size.
/// Used by ScanCountInequality and the ingest delta scan.
Result<size_t> ScanRowsCountInequality(const double* rows, size_t dim,
                                       size_t count,
                                       const ScalarProductQuery& q,
                                       const Deadline& deadline);

/// Raw exact aggregate: adds to `*matched` / `*sum` the match count and
/// the payload-column total of the matching rows among the `count` rows
/// (the CountAccepts sink). Shared by ScanAggregateInequality and the
/// ingest delta scan.
Status ScanRowsAggregateInequality(const double* rows, size_t dim,
                                   size_t count, int payload_column,
                                   const ScalarProductQuery& q,
                                   const Deadline& deadline, size_t* matched,
                                   double* sum);

/// Top-k form of ScanRowsInequality: offers every satisfying row in
/// [0, count) to `*buffer` as id `id_offset + i` with the usual
/// |residual| / ||a|| hyperplane distance. The caller owns buffer capacity
/// and must have validated `q` (finite, non-zero normal). Feeding a buffer
/// seeded with the base-index neighbors reproduces exactly the quiesced
/// full-data scan (ties break by id inside TopKBuffer::TakeSorted).
Status ScanRowsTopK(const double* rows, size_t dim, size_t count,
                    uint32_t id_offset, const ScalarProductQuery& q,
                    const Deadline& deadline, TopKBuffer* buffer);

/// Answers the inequality query by evaluating the scalar product for every
/// row of `phi`.
InequalityResult ScanInequality(const PhiMatrix& phi,
                                const ScalarProductQuery& q);

/// Deadline-aware variant: the scan polls `deadline` every
/// kDeadlineCheckInterval rows and fails with kDeadlineExceeded, so the
/// scan fallback honors the same per-request budget as the index paths.
Result<InequalityResult> ScanInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline);

/// Exact COUNT by full scan: the baseline CountInequality is benched and
/// property-tested against. Always exact (lower == upper == estimate);
/// stats mirror the scan fallback of ScanInequality (verified = n,
/// index_used = -1).
Result<CountResult> ScanCountInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline);

/// Exact SUM over `payload_column` of phi (plus the exact COUNT) by full
/// scan. Accepted payloads accumulate in canonical blocked summation
/// (core/aggregate.h), matching the refined index path's determinism
/// rule. Fails with InvalidArgument for an out-of-range column.
Result<AggregateResult> ScanAggregateInequality(const PhiMatrix& phi,
                                                int payload_column,
                                                const ScalarProductQuery& q,
                                                const Deadline& deadline);

/// Answers the top-k nearest neighbor query by evaluating every row and
/// keeping the k nearest satisfying points. Fails for an all-zero query
/// normal (hyperplane distance undefined) or k == 0.
Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k);

/// Deadline-aware variant (see the inequality overload).
Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k, const Deadline& deadline);

}  // namespace planar

#endif  // PLANAR_CORE_SCAN_H_
