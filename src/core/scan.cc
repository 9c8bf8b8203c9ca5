// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/scan.h"

#include "common/macros.h"
#include "geometry/vec.h"

namespace planar {

namespace {

Status ScanDeadlineExceeded() {
  return Status::DeadlineExceeded("sequential scan exceeded its deadline");
}

}  // namespace

Result<size_t> ScanRowsInequality(const double* rows, size_t dim, size_t count,
                                  uint32_t id_offset,
                                  const ScalarProductQuery& q,
                                  const Deadline& deadline,
                                  std::vector<uint32_t>* out) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  PLANAR_CHECK(out != nullptr);
  const size_t before = out->size();
  AppendIds sink{out};
  if (!VerifyRows(q, {rows, dim, count, nullptr, id_offset}, deadline, sink)) {
    return ScanDeadlineExceeded();
  }
  return out->size() - before;
}

Result<size_t> ScanRowsCountInequality(const double* rows, size_t dim,
                                       size_t count,
                                       const ScalarProductQuery& q,
                                       const Deadline& deadline) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  CountAccepts sink;
  if (!VerifyRows(q, {rows, dim, count}, deadline, sink)) {
    return ScanDeadlineExceeded();
  }
  return sink.accepted;
}

Status ScanRowsAggregateInequality(const double* rows, size_t dim,
                                   size_t count, int payload_column,
                                   const ScalarProductQuery& q,
                                   const Deadline& deadline, size_t* matched,
                                   double* sum) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  PLANAR_CHECK(matched != nullptr && sum != nullptr);
  PLANAR_CHECK(payload_column >= 0 && static_cast<size_t>(payload_column) <
                                          dim);
  CountAccepts sink{.payload = rows + static_cast<size_t>(payload_column),
                    .stride = dim,
                    .accepted = *matched,
                    .sum = *sum};
  if (!VerifyRows(q, {rows, dim, count}, deadline, sink)) {
    return ScanDeadlineExceeded();
  }
  *matched = sink.accepted;
  *sum = sink.sum;
  return Status::OK();
}

Status ScanRowsTopK(const double* rows, size_t dim, size_t count,
                    uint32_t id_offset, const ScalarProductQuery& q,
                    const Deadline& deadline, TopKBuffer* buffer) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  PLANAR_CHECK(buffer != nullptr);
  const double norm_a = Norm(q.a);
  PLANAR_CHECK(norm_a > 0.0);  // caller validated the query normal
  OfferNearest sink{buffer, norm_a};
  if (!VerifyRows(q, {rows, dim, count, nullptr, id_offset}, deadline, sink)) {
    return Status::DeadlineExceeded(
        "sequential top-k scan exceeded its deadline");
  }
  return Status::OK();
}

InequalityResult ScanInequality(const PhiMatrix& phi,
                                const ScalarProductQuery& q) {
  Result<InequalityResult> result =
      ScanInequality(phi, q, Deadline::Infinite());
  PLANAR_CHECK(result.ok());  // an infinite deadline never expires
  return std::move(result).value();
}

Result<InequalityResult> ScanInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  InequalityResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified = n;
  result.stats.index_used = -1;
  // Worst case up front (every row matches), like the index II paths:
  // one allocation per query instead of log2(result) geometric regrowths,
  // each of which copies the whole accumulated id vector. On near-total
  // selectivity scans the regrowth copies cost more than a block's
  // residual kernel (see the micro-bench note in bench/bench_micro.cc).
  result.ids.reserve(n);
  Result<size_t> appended =
      ScanRowsInequality(phi.data(), phi.dim(), n, /*id_offset=*/0, q,
                         deadline, &result.ids);
  if (!appended.ok()) return appended.status();
  result.stats.result_size = result.ids.size();
  return result;
}

Result<CountResult> ScanCountInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  CountResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified = n;
  result.stats.index_used = -1;
  Result<size_t> matched =
      ScanRowsCountInequality(phi.data(), phi.dim(), n, q, deadline);
  if (!matched.ok()) return matched.status();
  result.lower = result.upper = result.estimate = matched.value();
  result.exact = true;
  result.stats.result_size = result.estimate;
  return result;
}

Result<AggregateResult> ScanAggregateInequality(const PhiMatrix& phi,
                                                int payload_column,
                                                const ScalarProductQuery& q,
                                                const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  if (payload_column < 0 ||
      static_cast<size_t>(payload_column) >= phi.dim()) {
    return Status::InvalidArgument(
        "payload_column must name a phi matrix column");
  }
  AggregateResult result;
  const size_t n = phi.size();
  result.count.stats.num_points = n;
  result.count.stats.verified = n;
  result.count.stats.index_used = -1;
  size_t total = 0;
  double sum = 0.0;
  const Status scanned = ScanRowsAggregateInequality(
      phi.data(), phi.dim(), n, payload_column, q, deadline, &total, &sum);
  if (!scanned.ok()) return scanned;
  result.count.lower = result.count.upper = result.count.estimate = total;
  result.count.exact = true;
  result.count.stats.result_size = total;
  result.sum_lower = result.sum_upper = result.sum = sum;
  result.exact = true;
  return result;
}

Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k) {
  return ScanTopK(phi, q, k, Deadline::Infinite());
}

Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k, const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  if (!q.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  const double norm_a = Norm(q.a);
  if (norm_a == 0.0) {
    return Status::InvalidArgument(
        "top-k distance is undefined for an all-zero query normal");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  TopKResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified_intermediate = n;
  result.stats.index_used = -1;
  // Clamp the reservation by n: a huge k must not allocate past the
  // candidate count (see TopKBuffer).
  TopKBuffer buffer(k, n);
  Status scan = ScanRowsTopK(phi.data(), phi.dim(), n, /*id_offset=*/0, q,
                             deadline, &buffer);
  if (!scan.ok()) return scan;
  result.neighbors = buffer.TakeSorted();
  return result;
}

}  // namespace planar
