// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// PlanarIndexSet::BatchInequality contract tests. The batch path promises
// answers bit-identical to the serial deadline-aware Inequality for every
// query — same ids in the same order, same statistics, same statuses —
// for any mix of directions and batch sizes, so most tests
// here run both paths and compare field by field.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/batch.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace planar {
namespace {

IndexSetOptions BatchTestOptions(size_t budget) {
  IndexSetOptions o;
  o.budget = budget;
  return o;
}

std::vector<ParameterDomain> PositiveDomains(size_t d, double lo, double hi) {
  return std::vector<ParameterDomain>(d, ParameterDomain{lo, hi});
}

// Asserts the batch answer for one query is bit-identical to its serial
// counterpart: status (code and message), exact id sequence, statistics.
void ExpectSameAnswer(const Result<InequalityResult>& batched,
                      const Result<InequalityResult>& serial,
                      const std::string& context) {
  ASSERT_EQ(batched.ok(), serial.ok()) << context;
  if (!serial.ok()) {
    EXPECT_EQ(batched.status().code(), serial.status().code()) << context;
    EXPECT_EQ(batched.status().message(), serial.status().message())
        << context;
    return;
  }
  EXPECT_EQ(batched->ids, serial->ids) << context;  // exact order
  EXPECT_EQ(batched->stats.num_points, serial->stats.num_points) << context;
  EXPECT_EQ(batched->stats.accepted_directly, serial->stats.accepted_directly)
      << context;
  EXPECT_EQ(batched->stats.rejected_directly, serial->stats.rejected_directly)
      << context;
  EXPECT_EQ(batched->stats.verified, serial->stats.verified) << context;
  EXPECT_EQ(batched->stats.result_size, serial->stats.result_size) << context;
  EXPECT_EQ(batched->stats.index_used, serial->stats.index_used) << context;
}

// Runs the full comparison for a query set against one index set.
void ExpectBatchMatchesSerial(const PlanarIndexSet& set,
                              const std::vector<ScalarProductQuery>& queries,
                              const std::string& context) {
  BatchExecStats stats;
  const std::vector<Result<InequalityResult>> batched =
      set.BatchInequality(queries, {}, &stats);
  ASSERT_EQ(batched.size(), queries.size()) << context;
  EXPECT_EQ(stats.queries, queries.size()) << context;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Result<InequalityResult> serial =
        set.Inequality(queries[i], Deadline::Infinite());
    ExpectSameAnswer(batched[i], serial,
                     context + " query " + std::to_string(i));
  }
}

TEST(BatchInequalityTest, EmptyBatch) {
  auto set = PlanarIndexSet::Build(RandomPhi(50, 2, 1.0, 10.0, 1),
                                   PositiveDomains(2, 1.0, 4.0),
                                   BatchTestOptions(2));
  ASSERT_TRUE(set.ok());
  BatchExecStats stats;
  EXPECT_TRUE(
      set->BatchInequality(std::vector<ScalarProductQuery>{}, {}, &stats)
          .empty());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_DOUBLE_EQ(stats.SharingFactor(), 1.0);
  EXPECT_DOUBLE_EQ(stats.RowsSharedPerQuery(), 0.0);
}

TEST(BatchInequalityTest, BitIdenticalAcrossDims) {
  for (size_t dim = 1; dim <= 8; ++dim) {
    auto set = PlanarIndexSet::Build(
        RandomPhi(400, dim, 1.0, 100.0, 100 + dim),
        PositiveDomains(dim, 1.0, 8.0), BatchTestOptions(5));
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    Rng rng(200 + dim);
    for (size_t m : {size_t{1}, size_t{4}, size_t{17}}) {
      std::vector<ScalarProductQuery> queries(m);
      for (ScalarProductQuery& q : queries) {
        q.a.resize(dim);
        for (double& v : q.a) v = rng.Uniform(1.0, 8.0);
        q.b = rng.Uniform(50.0, 100.0 * static_cast<double>(dim) * 4.0);
        q.cmp = rng.NextDouble() < 0.5 ? Comparison::kLessEqual
                                       : Comparison::kGreaterEqual;
      }
      ExpectBatchMatchesSerial(
          *set, queries,
          "dim=" + std::to_string(dim) + " m=" + std::to_string(m));
    }
  }
}

TEST(BatchInequalityTest, BitIdenticalAcrossBlockBoundaries) {
  // Large II spanning several kernels::kBlockRows blocks, with queries
  // similar enough that their intervals coalesce into shared ranges.
  auto set = PlanarIndexSet::Build(RandomPhi(5000, 4, 1.0, 100.0, 7),
                                   PositiveDomains(4, 1.0, 4.0),
                                   BatchTestOptions(4));
  ASSERT_TRUE(set.ok());
  Rng rng(8);
  std::vector<ScalarProductQuery> queries(24);
  for (ScalarProductQuery& q : queries) {
    q.a = {1.0 + rng.Uniform(0.0, 0.2), 2.0 + rng.Uniform(0.0, 0.2),
           3.0 + rng.Uniform(0.0, 0.2), 1.5 + rng.Uniform(0.0, 0.2)};
    q.b = rng.Uniform(300.0, 600.0);
    q.cmp = Comparison::kLessEqual;
  }
  BatchExecStats stats;
  const auto batched = set->BatchInequality(queries, {}, &stats);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(batched[i],
                     set->Inequality(queries[i], Deadline::Infinite()),
                     "block-boundary query " + std::to_string(i));
  }
  // Similar queries overlap: coalescing must have saved row reads.
  EXPECT_LT(stats.rows_streamed, stats.rows_demanded);
  EXPECT_GT(stats.SharingFactor(), 1.0);
  EXPECT_GT(stats.RowsSharedPerQuery(), 0.0);
  EXPECT_GE(stats.merged_ranges, 1u);
}

TEST(BatchInequalityTest, BoundaryTiesWithDuplicateKeys) {
  // One-dimensional set with an explicit key multiset: ties exactly at
  // the cut value land points on the SI/II and II/LI boundaries, and
  // duplicates span those boundaries.
  const std::vector<double> values = {1.0, 2.0, 2.0, 2.0, 3.0, 3.0,
                                      5.0, 5.0, 5.0, 5.0, 7.0, 9.0};
  PhiMatrix phi(1);
  for (double v : values) phi.AppendRow({v});
  auto set = PlanarIndexSet::BuildWithNormals(
      std::move(phi), {{1.0}}, Octant::First(1), BatchTestOptions(1));
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  std::vector<ScalarProductQuery> queries;
  for (double b : {2.0, 3.0, 5.0, 7.0, 0.5, 9.0, 10.0}) {
    queries.push_back({{1.0}, b, Comparison::kLessEqual});
    queries.push_back({{1.0}, b, Comparison::kGreaterEqual});
    // Coefficients != 1 scale the cut without changing the tie structure.
    queries.push_back({{2.0}, 2.0 * b, Comparison::kLessEqual});
  }
  ExpectBatchMatchesSerial(*set, queries, "boundary ties");

  // And both paths must agree with brute force on the tie semantics.
  PhiMatrix reference(1);
  for (double v : values) reference.AppendRow({v});
  const auto batched = set->BatchInequality(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batched[i].ok());
    EXPECT_EQ(Sorted(batched[i]->ids), BruteForceMatches(reference, queries[i]))
        << "tie query " << i;
  }
}

TEST(BatchInequalityTest, MixedDirectionsAndDegenerateQueries) {
  auto set = PlanarIndexSet::Build(RandomPhi(300, 3, 1.0, 50.0, 11),
                                   PositiveDomains(3, 1.0, 8.0),
                                   BatchTestOptions(4));
  ASSERT_TRUE(set.ok());
  std::vector<ScalarProductQuery> queries = {
      {{2.0, 3.0, 1.0}, 200.0, Comparison::kLessEqual},
      {{2.0, 3.0, 1.0}, 200.0, Comparison::kGreaterEqual},
      {{0.0, 0.0, 0.0}, 1.0, Comparison::kLessEqual},     // all match
      {{0.0, 0.0, 0.0}, -1.0, Comparison::kLessEqual},    // none match
      {{0.0, 0.0, 0.0}, -1.0, Comparison::kGreaterEqual}, // all match
      {{1.0, -2.0, 1.0}, 60.0, Comparison::kLessEqual},   // foreign octant
      {{4.0, 4.0, 4.0}, 350.0, Comparison::kGreaterEqual},
  };
  ExpectBatchMatchesSerial(*set, queries, "mixed directions");
}

TEST(BatchInequalityTest, ScanGroupMatchesSerial) {
  // A tiny fallback fraction forces every index-served query with a
  // non-empty II down the scan path, so the batched scan group (shared
  // streaming of the full row range) gets exercised with several queries.
  IndexSetOptions options = BatchTestOptions(3);
  options.scan_fallback_fraction = 1e-9;
  auto set = PlanarIndexSet::Build(RandomPhi(600, 2, 1.0, 100.0, 12),
                                   PositiveDomains(2, 1.0, 4.0), options);
  ASSERT_TRUE(set.ok());
  Rng rng(13);
  std::vector<ScalarProductQuery> queries(9);
  for (ScalarProductQuery& q : queries) {
    q.a = {rng.Uniform(1.0, 4.0), rng.Uniform(1.0, 4.0)};
    q.b = rng.Uniform(100.0, 600.0);
    q.cmp = rng.NextDouble() < 0.5 ? Comparison::kLessEqual
                                   : Comparison::kGreaterEqual;
  }
  BatchExecStats stats;
  const auto batched = set->BatchInequality(queries, {}, &stats);
  size_t scanned = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(batched[i],
                     set->Inequality(queries[i], Deadline::Infinite()),
                     "scan query " + std::to_string(i));
    ASSERT_TRUE(batched[i].ok());
    // Queries with an empty II stay on the index (fallback only fires on
    // a non-empty interval); everything else fell back to scan.
    if (batched[i]->stats.index_used == -1) ++scanned;
  }
  EXPECT_GE(scanned, 2u);
  EXPECT_EQ(stats.scan_queries, scanned);
  // The scan group streams each row once for the whole group.
  EXPECT_LT(stats.rows_streamed, stats.rows_demanded);
}

TEST(BatchInequalityTest, ExpiredDeadlineFailsOnlyThatQuery) {
  auto set = PlanarIndexSet::Build(RandomPhi(400, 2, 1.0, 100.0, 14),
                                   PositiveDomains(2, 1.0, 4.0),
                                   BatchTestOptions(3));
  ASSERT_TRUE(set.ok());
  // Both queries have non-empty IIs (mid-range cut); the second one's
  // deadline is already spent.
  std::vector<ScalarProductQuery> queries = {
      {{2.0, 3.0}, 250.0, Comparison::kLessEqual},
      {{2.0, 3.0}, 260.0, Comparison::kLessEqual},
  };
  std::vector<Deadline> deadlines = {Deadline::Infinite(),
                                     Deadline::After(-1.0)};
  const auto batched = set->BatchInequality(queries, deadlines);
  ASSERT_EQ(batched.size(), 2u);
  ExpectSameAnswer(batched[0], set->Inequality(queries[0], deadlines[0]),
                   "live query");
  ASSERT_TRUE(batched[0].ok());
  ASSERT_FALSE(batched[1].ok());
  EXPECT_EQ(batched[1].status().code(), StatusCode::kDeadlineExceeded);
  // Exact parity with the serial deadline path, message included.
  const auto serial = set->Inequality(queries[1], deadlines[1]);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(batched[1].status().message(), serial.status().message());
}

TEST(BatchInequalityTest, EmptyIINeverObservesDeadline) {
  // Queries whose cut lies outside the key range have an empty II —
  // no verification work, so like the serial path they succeed even with
  // an expired deadline.
  auto set = PlanarIndexSet::Build(RandomPhi(200, 2, 1.0, 10.0, 15),
                                   PositiveDomains(2, 1.0, 4.0),
                                   BatchTestOptions(2));
  ASSERT_TRUE(set.ok());
  // Values lie in [1, 10], so <a, phi(x)> is in [2, 20] for a = (1, 1):
  // cuts far above or below that range leave the II empty while keeping
  // b positive (negative b would flip the normalized octant to scan).
  std::vector<ScalarProductQuery> queries = {
      {{1.0, 1.0}, 1e9, Comparison::kLessEqual},   // SI = everything
      {{1.0, 1.0}, 1e-3, Comparison::kLessEqual},  // LI = everything
      {{1.0, 1.0}, 1e-3, Comparison::kGreaterEqual},
      {{1.0, 1.0}, 1e9, Comparison::kGreaterEqual},
  };
  const std::vector<Deadline> deadlines(queries.size(),
                                        Deadline::After(-1.0));
  const auto batched = set->BatchInequality(queries, deadlines);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(batched[i], set->Inequality(queries[i], deadlines[i]),
                     "empty-II query " + std::to_string(i));
    EXPECT_TRUE(batched[i].ok());
  }
}

TEST(BatchExecStatsTest, Accessors) {
  BatchExecStats stats;
  EXPECT_DOUBLE_EQ(stats.SharingFactor(), 1.0);
  EXPECT_DOUBLE_EQ(stats.RowsSharedPerQuery(), 0.0);
  stats.queries = 4;
  stats.rows_streamed = 100;
  stats.rows_demanded = 300;
  EXPECT_DOUBLE_EQ(stats.SharingFactor(), 3.0);
  EXPECT_DOUBLE_EQ(stats.RowsSharedPerQuery(), 50.0);
}

}  // namespace
}  // namespace planar
