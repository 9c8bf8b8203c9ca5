// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/overlay.h"

#include <utility>

#include "common/macros.h"
#include "core/fold.h"
#include "core/scan.h"

namespace planar {

namespace {

// Scan-verifies `delta_rows` published delta rows and appends the matches
// (ids from `id_offset` on).
Status FoldDeltaInequality(const DeltaBuffer& delta, size_t delta_rows,
                           uint32_t id_offset, const ScalarProductQuery& q,
                           const Deadline& deadline, InequalityResult* result) {
  const Result<size_t> appended =
      ScanRowsInequality(delta.data(), delta.dim(), delta_rows, id_offset, q,
                         deadline, &result->ids);
  PLANAR_RETURN_IF_ERROR(appended.status());
  result->stats.num_points += delta_rows;
  result->stats.verified += delta_rows;
  result->stats.result_size = result->ids.size();
  return Status::OK();
}

// The delta overlay every single-query read shares: answers `base(set)`
// on the base snapshot, and lets `fold(delta_rows, &answer)` scan the
// unmerged rows into the answer.
template <typename T, typename Base, typename Fold>
Result<T> Overlay(const OverlaySet& overlay, const Base& base,
                  const Fold& fold) {
  // Snapshot the published delta length first: rows appended after this
  // point belong to a later read.
  const size_t delta_rows = overlay.delta()->size();
  // The base call also validates the query (and k, and the payload
  // configuration); an error passes through untouched, exactly as on a
  // plain set.
  Result<T> out = base(*overlay.base());
  if (out.ok() && delta_rows > 0) {
    const Status folded = fold(delta_rows, &out.value());
    if (!folded.ok()) out = folded;
  }
  return out;
}

}  // namespace

Result<InequalityResult> OverlaySet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  return Overlay<InequalityResult>(
      *this,
      [&](const PlanarIndexSet& base) { return base.Inequality(q, deadline); },
      [&](size_t delta_rows, InequalityResult* result) {
        return FoldDeltaInequality(*delta_, delta_rows,
                                   static_cast<uint32_t>(base_->size()), q,
                                   deadline, result);
      });
}

Result<TopKResult> OverlaySet::TopK(const ScalarProductQuery& q, size_t k,
                                    const Deadline& deadline) const {
  return Overlay<TopKResult>(
      *this,
      [&](const PlanarIndexSet& base) { return base.TopK(q, k, deadline); },
      [&](size_t delta_rows, TopKResult* result) {
        // Re-seeding the merge with the base's k nearest and offering
        // every delta row reproduces the k nearest of the union: any
        // point in the merged top-k is either a delta row or already
        // among the base's top-k.
        Result<std::vector<Neighbor>> merged = MergeTopK(
            k, result->neighbors.size() + delta_rows, [&](TopKBuffer* buffer) {
              for (const Neighbor& n : result->neighbors) {
                buffer->Insert(n.id, n.distance);
              }
              return ScanRowsTopK(delta_->data(), delta_->dim(), delta_rows,
                                  static_cast<uint32_t>(base_->size()), q,
                                  deadline, buffer);
            });
        PLANAR_RETURN_IF_ERROR(merged.status());
        result->neighbors = std::move(merged).value();
        result->stats.num_points += delta_rows;
        result->stats.verified_intermediate += delta_rows;
        return Status::OK();
      });
}

std::vector<Result<InequalityResult>> OverlaySet::BatchInequality(
    std::span<const ScalarProductQuery> queries,
    std::span<const Deadline> deadlines, BatchExecStats* exec_stats) const {
  const size_t delta_rows = delta_->size();
  std::vector<Result<InequalityResult>> out =
      base_->BatchInequality(queries, deadlines, exec_stats);
  if (delta_rows == 0) return out;
  for (size_t i = 0; i < out.size(); ++i) {
    Result<InequalityResult>& result = out[i];
    if (!result.ok()) continue;
    const Status folded = FoldDeltaInequality(
        *delta_, delta_rows, static_cast<uint32_t>(base_->size()), queries[i],
        deadlines.empty() ? Deadline() : deadlines[i], &result.value());
    if (!folded.ok()) result = folded;
  }
  return out;
}

Result<CountResult> OverlaySet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  return Overlay<CountResult>(
      *this,
      [&](const PlanarIndexSet& base) {
        return base.CountInequality(q, tolerance, deadline);
      },
      [&](size_t delta_rows, CountResult* result) {
        // The unmerged rows are counted exactly (they are few by the
        // merge threshold), so the overlay widens nothing: the bounds
        // shift by the exact delta match count, and a tolerance-0 answer
        // stays bit-equal to a quiesced merge.
        Result<size_t> matched = ScanRowsCountInequality(
            delta_->data(), delta_->dim(), delta_rows, q, deadline);
        PLANAR_RETURN_IF_ERROR(matched.status());
        CountResult delta;
        delta.lower = delta.upper = delta.estimate = matched.value();
        delta.exact = true;
        FoldCount(delta, result);
        result->stats.num_points += delta_rows;
        result->stats.verified += delta_rows;
        result->stats.result_size = result->estimate;
        return Status::OK();
      });
}

Result<AggregateResult> OverlaySet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  return Overlay<AggregateResult>(
      *this,
      [&](const PlanarIndexSet& base) {
        return base.AggregateInequality(q, tolerance, deadline);
      },
      [&](size_t delta_rows, AggregateResult* result) {
        // Exact shift of every bound by the delta's exact contribution.
        AggregateResult delta;
        PLANAR_RETURN_IF_ERROR(ScanRowsAggregateInequality(
            delta_->data(), delta_->dim(), delta_rows,
            base_->options().index_options.payload_column, q, deadline,
            &delta.count.estimate, &delta.sum));
        delta.sum_lower = delta.sum_upper = delta.sum;
        delta.count.lower = delta.count.upper = delta.count.estimate;
        delta.exact = delta.count.exact = true;
        FoldAggregate(delta, result);
        result->count.stats.num_points += delta_rows;
        result->count.stats.verified += delta_rows;
        result->count.stats.result_size = result->count.estimate;
        return Status::OK();
      });
}

}  // namespace planar
