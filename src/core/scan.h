// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The naive sequential-scan baseline the paper compares against
// (Section 7.1, "Competing Method"): O(n d') for the inequality query and
// O(n d' + n log k) for the top-k query.

#ifndef PLANAR_CORE_SCAN_H_
#define PLANAR_CORE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "core/planar_index.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/topk.h"

namespace planar {

/// Scan-verifies `count` row-major rows of width `dim` starting at `rows`,
/// appending the id `id_offset + i` of every row i that satisfies `q` to
/// `*out`. The block-at-a-time kernel loop is the one behind
/// ScanInequality, so the accept decision per row is bit-identical to the
/// full-matrix scan and the index verification paths. Exposed raw so the
/// ingest delta overlay (src/ingest) can verify not-yet-merged rows
/// against the same predicate; returns the number of ids appended, or
/// kDeadlineExceeded (polled per block).
Result<size_t> ScanRowsInequality(const double* rows, size_t dim, size_t count,
                                  uint32_t id_offset,
                                  const ScalarProductQuery& q,
                                  const Deadline& deadline,
                                  std::vector<uint32_t>* out);

/// Counting twin of ScanRowsInequality: returns how many of the `count`
/// rows satisfy `q` without materializing ids — same block cadence, same
/// accept predicate (through the same CompressAccept kernel), so the
/// count is bit-equal to ScanRowsInequality(...)'s appended size. Used
/// by the COUNT fast path's scan fallback and the ingest delta overlay.
Result<size_t> ScanRowsCountInequality(const double* rows, size_t dim,
                                       size_t count,
                                       const ScalarProductQuery& q,
                                       const Deadline& deadline);

/// Raw exact aggregate: adds to `*matched` / `*sum` the match count and
/// the payload-column total of the matching rows among the `count` rows,
/// accumulating accepted payloads per block through the canonical
/// blocked summation (core/aggregate.h). Shared by the full-matrix
/// ScanAggregateInequality and the ingest delta overlay.
Status ScanRowsAggregateInequality(const double* rows, size_t dim,
                                   size_t count, int payload_column,
                                   const ScalarProductQuery& q,
                                   const Deadline& deadline, size_t* matched,
                                   double* sum);

/// Top-k analogue of ScanRowsInequality: offers every satisfying row in
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
