// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// OverlaySet: one epoch of an ingest-managed target — an installed base
// snapshot plus the delta rows appended on top of it — read like a set.
// Its five read methods carry PlanarIndexSet's names and signatures, so
// the engine serves a pinned overlay through the same call as a catalog
// set or a sharded one.
//
// Every read snapshots the published delta length first (rows appended
// after that belong to a later read), answers on the base, and then
// scan-verifies the unmerged rows through the verify loop the base paths
// use (core/scan.h ScanRows* over VerifyRows), folding them in with the
// partition folds of core/fold.h. The ids, counts, sums and neighbors
// returned are exactly those a quiesced from-scratch Rebuild over the
// same rows would return (machine-checked by tests/ingest_test.cc, under
// tsan by tests/ingest_stress_test.cc).
//
// Row ids: delta row j has global id base()->size() + j.

#ifndef PLANAR_CORE_OVERLAY_H_
#define PLANAR_CORE_OVERLAY_H_

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/batch.h"
#include "core/delta_buffer.h"
#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/query.h"

namespace planar {

/// An immutable {base snapshot, delta} pair. The delta keeps growing
/// under its writer; each read sees the rows published when it started.
class OverlaySet {
 public:
  OverlaySet(std::shared_ptr<const PlanarIndexSet> base,
             std::shared_ptr<const DeltaBuffer> delta)
      : base_(std::move(base)), delta_(std::move(delta)) {}

  /// Problem 1 over base + delta: the base's ids, then the matching
  /// delta rows in ascending id order.
  Result<InequalityResult> Inequality(
      const ScalarProductQuery& q,
      const Deadline& deadline = Deadline::Infinite()) const;

  /// Batch Problem 1: the base's coalesced batch, then each OK answer
  /// folds the delta as Inequality does. result[i] answers queries[i].
  std::vector<Result<InequalityResult>> BatchInequality(
      std::span<const ScalarProductQuery> queries,
      std::span<const Deadline> deadlines = {},
      BatchExecStats* exec_stats = nullptr) const;

  /// COUNT: the base's bounds shifted by the exact delta match count, so
  /// a tolerance-0 count stays bit-equal to a quiesced merge.
  Result<CountResult> CountInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// SUM/AVG: every base bound shifted by the delta's exact payload sum
  /// (same canonical blocked summation as the base).
  Result<AggregateResult> AggregateInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// Problem 2: the base's k nearest merged with every delta row.
  Result<TopKResult> TopK(
      const ScalarProductQuery& q, size_t k,
      const Deadline& deadline = Deadline::Infinite()) const;

  const std::shared_ptr<const PlanarIndexSet>& base() const { return base_; }
  const std::shared_ptr<const DeltaBuffer>& delta() const { return delta_; }

 private:
  const std::shared_ptr<const PlanarIndexSet> base_;
  const std::shared_ptr<const DeltaBuffer> delta_;
};

}  // namespace planar

#endif  // PLANAR_CORE_OVERLAY_H_
