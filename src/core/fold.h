// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Result folds for one query answered over disjoint row partitions: the
// shards of a ShardedIndexSet (core/sharded.cc) and the base plus
// unmerged delta of an ingest epoch (OverlaySet, core/overlay.cc). The
// partitions hold disjoint rows, so COUNT and SUM bounds add, and the
// global top-k is the top-k of the union of the partial top-ks — the
// same aggregate in different semirings (id union, sum of 1, sum of
// payload). QueryStats bookkeeping stays with each caller: the shard
// fan-out sums per-shard stats, the overlay charges its delta scan.

#ifndef PLANAR_CORE_FOLD_H_
#define PLANAR_CORE_FOLD_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/planar_index.h"
#include "core/topk.h"

namespace planar {

/// Adds one partition's COUNT bounds and estimate into `*into`.
inline void FoldCount(const CountResult& part, CountResult* into) {
  into->lower += part.lower;
  into->upper += part.upper;
  into->estimate += part.estimate;
  into->exact &= part.exact;
  into->refined |= part.refined;
  into->model_estimated |= part.model_estimated;
}

/// Adds one partition's SUM bounds, and the COUNT riding along, into
/// `*into`.
inline void FoldAggregate(const AggregateResult& part, AggregateResult* into) {
  into->sum_lower += part.sum_lower;
  into->sum_upper += part.sum_upper;
  into->sum += part.sum;
  into->exact &= part.exact;
  into->refined |= part.refined;
  FoldCount(part.count, &into->count);
}

/// The bounded top-k merge: `offer(&buffer)` inserts the candidates of
/// every partition — at most `candidates` of them — and the k nearest
/// come back in canonical (distance, id) order, so the merged answer is
/// bit-identical to a monolithic top-k over the union. The reservation
/// is capped by `candidates`: a k beyond the row count costs only what
/// the partitions hold. An error from `offer` fails the merge. k > 0:
/// every partition rejects k == 0 before a merge runs.
template <typename Offer>
Result<std::vector<Neighbor>> MergeTopK(size_t k, size_t candidates,
                                        const Offer& offer) {
  TopKBuffer buffer(k, candidates);
  PLANAR_RETURN_IF_ERROR(offer(&buffer));
  return buffer.TakeSorted();
}

/// The per-query stats block of each answer kind.
inline QueryStats& StatsOf(InequalityResult& r) { return r.stats; }
inline QueryStats& StatsOf(CountResult& r) { return r.stats; }
inline QueryStats& StatsOf(AggregateResult& r) { return r.count.stats; }
inline TopKStats& StatsOf(TopKResult& r) { return r.stats; }

/// Rows one answer verified with the exact scalar product — the |II|
/// evaluations the shard counters and engine metrics account.
inline size_t RowsVerified(const InequalityResult& r) {
  return r.stats.verified;
}
inline size_t RowsVerified(const CountResult& r) { return r.stats.verified; }
inline size_t RowsVerified(const AggregateResult& r) {
  return r.count.stats.verified;
}
inline size_t RowsVerified(const TopKResult& r) {
  return r.stats.verified_intermediate;
}

}  // namespace planar

#endif  // PLANAR_CORE_FOLD_H_
