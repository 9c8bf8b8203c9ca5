// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Unit tests for a single Planar index: construction validation, interval
// boundaries on hand-computed examples, query answers against the scan
// baseline, and dynamic maintenance.

#include "core/planar_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

TEST(PlanarIndexBuildTest, RejectsNullAndEmpty) {
  EXPECT_FALSE(PlanarIndex::BuildFirstOctant(nullptr, {1.0}).ok());
  PhiMatrix empty(1);
  EXPECT_FALSE(PlanarIndex::BuildFirstOctant(&empty, {1.0}).ok());
}

TEST(PlanarIndexBuildTest, RejectsBadNormal) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {1.0, 2.0});
  EXPECT_FALSE(PlanarIndex::BuildFirstOctant(&phi, {1.0}).ok());       // dim
  EXPECT_FALSE(PlanarIndex::BuildFirstOctant(&phi, {1.0, 0.0}).ok());  // zero
  EXPECT_FALSE(PlanarIndex::BuildFirstOctant(&phi, {1.0, -1.0}).ok());
}

TEST(PlanarIndexBuildTest, KeysAreSortedScalarProducts) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {3.0, 1.0,   // key 3+2 = 5
                                              1.0, 1.0,   // key 1+2 = 3
                                              2.0, 5.0});  // key 2+10 = 12
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 3u);
  // Rank order: row 1 (key 3), row 0 (key 5), row 2 (key 12).
  EXPECT_DOUBLE_EQ(index->RankKeys()[1], 5.0);
  EXPECT_DOUBLE_EQ(index->RankKeys()[0], 3.0);
  EXPECT_DOUBLE_EQ(index->RankKeys()[2], 12.0);
}

// A 2-d arrangement mirroring the paper's Figure 2: seven points, an index
// normal c = (1, 1) and a query hyperplane Y1 + Y2 = 4 (a = c so the
// intermediate interval is empty), plus a skewed query where it is not.
TEST(PlanarIndexIntervalTest, ParallelQueryHasEmptyIntermediate) {
  PhiMatrix phi = RowMatrix::FromRowMajor(
      2, {0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 1.5, 3.0, 3.0, 4.0, 3.5, 5.0,
          4.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const NormalizedQuery q =
      NormalizedQuery::From({{1.0, 1.0}, 4.0, Comparison::kLessEqual});
  auto iv = index->ComputeIntervals(q);
  ASSERT_TRUE(iv.ok());
  EXPECT_EQ(iv->smaller_end, iv->larger_begin);  // |II| = 0
  // Keys: 1, 2, 3, 3.5, 6, 7.5, 9 -> four keys <= 4.
  EXPECT_EQ(iv->smaller_end, 4u);
}

TEST(PlanarIndexIntervalTest, SkewedQueryHasIntermediate) {
  PhiMatrix phi = RowMatrix::FromRowMajor(
      2, {0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 1.5, 3.0, 3.0, 4.0, 3.5, 5.0,
          4.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  // a = (1, 3): I(q,1) = 6, I(q,2) = 2. Accept keys <= min(6, 2*3*1)=...
  // low = b / max(a_i/c_i) = 6 / 3 = 2; high = b / min(a_i/c_i) = 6 / 1 = 6.
  const NormalizedQuery q =
      NormalizedQuery::From({{1.0, 3.0}, 6.0, Comparison::kLessEqual});
  auto iv = index->ComputeIntervals(q);
  ASSERT_TRUE(iv.ok());
  // Keys sorted: 1, 2, 3, 3.5, 6, 7.5, 9. The key exactly equal to the
  // low boundary (2) falls inside the floating-point guard band and is
  // pushed into the intermediate interval for exact verification.
  EXPECT_EQ(iv->smaller_end, 1u);   // key 1
  EXPECT_EQ(iv->larger_begin, 5u);  // keys 7.5, 9 rejected
}

TEST(PlanarIndexTest, InequalityMatchesScanOnExample) {
  PhiMatrix phi = RandomPhi(500, 3, 1.0, 100.0, 17);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 3.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{2.0, 1.0, 4.0}, 500.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
  // Stats add up.
  const QueryStats& s = result->stats;
  EXPECT_EQ(s.num_points, 500u);
  EXPECT_EQ(s.accepted_directly + s.rejected_directly + s.verified, 500u);
  EXPECT_EQ(s.result_size, result->ids.size());
}

TEST(PlanarIndexTest, GreaterEqualMatchesScan) {
  PhiMatrix phi = RandomPhi(500, 3, 1.0, 100.0, 18);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{2.0, 1.0, 4.0}, 600.0,
                             Comparison::kGreaterEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexTest, OctantMismatchIsRejected) {
  PhiMatrix phi = RandomPhi(50, 2, -10.0, 10.0, 19);
  auto index = PlanarIndex::Build(&phi, {1.0, 1.0},
                                  Octant::FromNormal({1.0, -1.0}));
  ASSERT_TRUE(index.ok());
  // Query with positive a_1 cannot be served by a (+,-) index.
  const NormalizedQuery q =
      NormalizedQuery::From({{1.0, 1.0}, 5.0, Comparison::kLessEqual});
  EXPECT_FALSE(index->CanServe(q));
  EXPECT_EQ(index->Inequality(q).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(index->TopK(q, 3).ok());
  // A (+,-) query is fine.
  const NormalizedQuery ok =
      NormalizedQuery::From({{1.0, -1.0}, 5.0, Comparison::kLessEqual});
  EXPECT_TRUE(index->CanServe(ok));
  EXPECT_TRUE(index->Inequality(ok).ok());
}

TEST(PlanarIndexTest, ZeroQueryAxisIsHandled) {
  PhiMatrix phi = RandomPhi(300, 3, 1.0, 50.0, 20);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{2.0, 0.0, 1.0}, 80.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexTest, DegenerateAllZeroQuery) {
  PhiMatrix phi = RandomPhi(20, 2, 1.0, 5.0, 21);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  // 0 <= 3: every point matches.
  auto all = index->Inequality(
      ScalarProductQuery{{0.0, 0.0}, 3.0, Comparison::kLessEqual});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->ids.size(), 20u);
  // 0 >= 3 is false for every point.
  auto none = index->Inequality(
      ScalarProductQuery{{0.0, 0.0}, 3.0, Comparison::kGreaterEqual});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->ids.empty());
  // Top-k distance is undefined.
  EXPECT_FALSE(
      index
          ->TopK(ScalarProductQuery{{0.0, 0.0}, 3.0, Comparison::kLessEqual},
                 2)
          .ok());
  // So it is when |a| underflows to zero; the index refuses such a query
  // with the scan's status instead of dividing by the zero norm.
  const ScalarProductQuery tiny{{5e-324, 5e-324}, 3.0,
                                Comparison::kLessEqual};
  const auto indexed = index->TopK(tiny, 2);
  const auto scanned = ScanTopK(phi, tiny, 2);
  ASSERT_FALSE(indexed.ok());
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(indexed.status().code(), scanned.status().code());
  EXPECT_EQ(indexed.status().message(), scanned.status().message());
}

// A degenerate (all-zero a) COUNT or SUM is a constant answer decided
// without verifying a row; it must equal the scan's for both comparisons,
// at b == 0 (0 <= 0 and 0 >= 0 hold everywhere) and b > 0. The payload
// column holds small integers, so every summation order is exact.
TEST(PlanarIndexTest, DegenerateCountAndSumMatchScan) {
  Rng rng(23);
  PhiMatrix phi(2);
  for (int i = 0; i < 700; ++i) {
    phi.AppendRow({rng.Uniform(1.0, 5.0),
                   std::floor(rng.Uniform(-50.0, 50.0))});
  }
  PlanarIndexOptions options;
  options.payload_column = 1;
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0}, options);
  ASSERT_TRUE(index.ok());
  for (const Comparison cmp :
       {Comparison::kLessEqual, Comparison::kGreaterEqual}) {
    for (const double b : {0.0, 3.0}) {
      const ScalarProductQuery q{{0.0, 0.0}, b, cmp};
      SCOPED_TRACE(q.ToString());
      auto count = index->CountInequality(q);
      auto scan_count = ScanCountInequality(phi, q, Deadline::Infinite());
      ASSERT_TRUE(count.ok());
      ASSERT_TRUE(scan_count.ok());
      EXPECT_TRUE(count->exact);
      EXPECT_EQ(count->lower, scan_count->lower);
      EXPECT_EQ(count->upper, scan_count->upper);
      EXPECT_EQ(count->estimate, scan_count->estimate);
      EXPECT_EQ(count->stats.verified, 0u);
      EXPECT_FALSE(count->refined);

      auto sum = index->AggregateInequality(q);
      auto scan_sum =
          ScanAggregateInequality(phi, 1, q, Deadline::Infinite());
      ASSERT_TRUE(sum.ok());
      ASSERT_TRUE(scan_sum.ok());
      EXPECT_TRUE(sum->exact);
      EXPECT_EQ(sum->sum, scan_sum->sum);
      EXPECT_EQ(sum->sum_lower, scan_sum->sum_lower);
      EXPECT_EQ(sum->sum_upper, scan_sum->sum_upper);
      EXPECT_EQ(sum->count.estimate, scan_sum->count.estimate);
      EXPECT_EQ(sum->count.stats.verified, 0u);
      EXPECT_FALSE(sum->refined);
    }
  }
}

TEST(PlanarIndexTest, TopKMatchesScan) {
  PhiMatrix phi = RandomPhi(800, 3, 1.0, 100.0, 22);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.5, 0.7});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 2.0, 3.0}, 350.0, Comparison::kLessEqual};
  for (size_t k : {1u, 5u, 50u, 799u, 2000u}) {
    auto got = index->TopK(q, k);
    auto want = ScanTopK(phi, q, k);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->neighbors.size(), want->neighbors.size()) << "k=" << k;
    for (size_t i = 0; i < got->neighbors.size(); ++i) {
      EXPECT_EQ(got->neighbors[i].id, want->neighbors[i].id) << "k=" << k;
      EXPECT_NEAR(got->neighbors[i].distance, want->neighbors[i].distance,
                  1e-9);
    }
  }
}

TEST(PlanarIndexTest, TopKPruningFiresForParallelIndex) {
  PhiMatrix phi = RandomPhi(5000, 2, 1.0, 100.0, 23);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0});
  ASSERT_TRUE(index.ok());
  // Query parallel to the index: |II| = 0 and the SI walk should stop after
  // roughly k points.
  const ScalarProductQuery q{{1.0, 2.0}, 150.0, Comparison::kLessEqual};
  auto result = index->TopK(q, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 10u);
  EXPECT_TRUE(result->stats.early_terminated);
  EXPECT_LT(result->stats.checked(), 100u);
  // And it still matches the scan.
  auto want = ScanTopK(phi, q, 10);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result->neighbors[i].id, want->neighbors[i].id);
  }
}

TEST(PlanarIndexUpdateTest, UpdateWithinBounds) {
  PhiMatrix phi = RandomPhi(200, 2, 1.0, 100.0, 25);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 2.0}, 120.0, Comparison::kLessEqual};

  // Move 50 rows and keep the index in sync.
  Rng rng(26);
  std::vector<double> row(2);
  for (int i = 0; i < 50; ++i) {
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(200));
    row[0] = rng.Uniform(1.0, 100.0);
    row[1] = rng.Uniform(1.0, 100.0);
    phi.SetRow(target, row.data());
    EXPECT_TRUE(index->Update(target));
    const uint32_t* ids = index->RankIds();
    const size_t rank = static_cast<size_t>(
        std::find(ids, ids + index->size(), target) - ids);
    ASSERT_LT(rank, index->size());
    EXPECT_DOUBLE_EQ(index->RankKeys()[rank], row[0] + row[1]);
  }
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexUpdateTest, EscapingUpdateRequestsRebuild) {
  PhiMatrix phi = RandomPhi(50, 1, 1.0, 10.0, 27);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0});
  ASSERT_TRUE(index.ok());
  const double escaped[] = {-100.0};  // far below the delta bound
  phi.SetRow(3, escaped);
  EXPECT_FALSE(index->Update(3));
  index->Rebuild();
  const ScalarProductQuery q{{1.0}, 5.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexUpdateTest, UpdateBatchAgreesWithScan) {
  PhiMatrix phi = RandomPhi(300, 3, 1.0, 100.0, 26);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0});
  ASSERT_TRUE(index.ok());
  Rng rng(27);
  std::vector<uint32_t> rows;
  std::vector<double> row(3);
  for (int i = 0; i < 80; ++i) {
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(300));
    for (double& v : row) v = rng.Uniform(1.0, 100.0);
    phi.SetRow(target, row.data());
    rows.push_back(target);
  }
  ASSERT_TRUE(index->UpdateBatch(rows));
  const ScalarProductQuery q{{1.0, 2.0, 3.0}, 250.0,
                             Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

// The sorted-array UpdateBatch merge path (compact unchanged entries,
// sort the k fresh ones, merge back) must leave keys_/ids_ exactly as a
// full Rebuild would — same ranks, same (key, id) tie order. Duplicate
// keys, repeated rows in the batch, and no-op updates are all included.
TEST(PlanarIndexUpdateTest, UpdateBatchMatchesFullRebuild) {
  // Integer-grid values make duplicate keys common, exercising the
  // (key, id) tie-break in the merge.
  PhiMatrix phi(2);
  Rng init(31);
  for (int i = 0; i < 400; ++i) {
    phi.AppendRow({static_cast<double>(init.UniformInt(8) + 1),
                   static_cast<double>(init.UniformInt(8) + 1)});
  }
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  Rng rng(32);
  std::vector<uint32_t> rows;
  for (int i = 0; i < 120; ++i) {
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(400));
    const double row[] = {static_cast<double>(rng.UniformInt(8) + 1),
                          static_cast<double>(rng.UniformInt(8) + 1)};
    phi.SetRow(target, row);
    rows.push_back(target);
    if (i % 7 == 0) rows.push_back(target);  // duplicate row in the batch
  }
  ASSERT_TRUE(index->UpdateBatch(rows));

  std::vector<uint32_t> merged_ids;
  index->CollectRange(0, index->size(), &merged_ids);
  std::vector<double> merged_keys(merged_ids.size());
  for (size_t r = 0; r < merged_ids.size(); ++r) {
    merged_keys[r] = index->RankKeys()[r];
  }

  index->Rebuild();
  std::vector<uint32_t> rebuilt_ids;
  index->CollectRange(0, index->size(), &rebuilt_ids);
  ASSERT_EQ(merged_ids.size(), rebuilt_ids.size());
  EXPECT_EQ(merged_ids, rebuilt_ids);
  for (size_t r = 0; r < rebuilt_ids.size(); ++r) {
    EXPECT_EQ(merged_keys[r], index->RankKeys()[r]) << "rank " << r;
  }
}

TEST(PlanarIndexUpdateTest, UpdateBatchDetectsEscape) {
  PhiMatrix phi = RandomPhi(50, 1, 1.0, 10.0, 28);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0});
  ASSERT_TRUE(index.ok());
  const double escaped[] = {-999.0};
  phi.SetRow(5, escaped);
  EXPECT_FALSE(index->UpdateBatch({5}));
  index->Rebuild();
  const ScalarProductQuery q{{1.0}, 5.0, Comparison::kLessEqual};
  EXPECT_EQ(Sorted(index->Inequality(q)->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexUpdateTest, AppendAgreesWithScan) {
  PhiMatrix phi = RandomPhi(100, 2, 1.0, 50.0, 28);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  for (int i = 0; i < 20; ++i) {
    phi.AppendRow({10.0 + i, 20.0});
    EXPECT_TRUE(index->NotifyAppend(static_cast<uint32_t>(phi.size() - 1)));
  }
  EXPECT_EQ(index->size(), 120u);
  const ScalarProductQuery q{{1.0, 1.0}, 60.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexTest, StretchZeroForParallelQuery) {
  // Corollary 1: a query parallel to the index has zero stretch.
  PhiMatrix phi = RandomPhi(10, 3, 1.0, 10.0, 29);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 5.0});
  ASSERT_TRUE(index.ok());
  const NormalizedQuery parallel =
      NormalizedQuery::From({{2.0, 4.0, 10.0}, 7.0, Comparison::kLessEqual});
  EXPECT_NEAR(index->MaxStretch(parallel), 0.0, 1e-9);
  EXPECT_NEAR(index->CosAngle(parallel), 1.0, 1e-12);
  const NormalizedQuery skewed =
      NormalizedQuery::From({{5.0, 1.0, 1.0}, 7.0, Comparison::kLessEqual});
  EXPECT_GT(index->MaxStretch(skewed), 0.0);
  EXPECT_LT(index->CosAngle(skewed), 1.0);
}

TEST(PlanarIndexTest, PaperExample4Stretch) {
  // Example 4 of the paper: query Y1 + 2 Y2 + 5 Y3 = 10, index normal
  // (1, 1, 2): maximum stretch along any axis is 6.
  PhiMatrix phi = RandomPhi(10, 3, 0.5, 1.0, 30);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 2.0});
  ASSERT_TRUE(index.ok());
  const NormalizedQuery q =
      NormalizedQuery::From({{1.0, 2.0, 5.0}, 10.0, Comparison::kLessEqual});
  // m_k = c_k * b / a_k = 10, 5, 4 -> spread 6; min c = 1 -> stretch 6.
  EXPECT_NEAR(index->MaxStretch(q), 6.0, 1e-12);
}

// --- Non-finite and degenerate-ratio query parameters ---------------------

TEST(PlanarIndexEdgeCaseTest, NonFiniteQueryParametersAreRejected) {
  PhiMatrix phi = RandomPhi(50, 2, 0.0, 10.0, 71);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScalarProductQuery bad_queries[] = {
      {{nan, 1.0}, 1.0, Comparison::kLessEqual},
      {{1.0, inf}, 1.0, Comparison::kLessEqual},
      {{1.0, 1.0}, nan, Comparison::kLessEqual},
      {{1.0, 1.0}, -inf, Comparison::kGreaterEqual},
  };
  for (const ScalarProductQuery& q : bad_queries) {
    EXPECT_FALSE(index->Inequality(q).ok()) << q.ToString();
    EXPECT_FALSE(index->TopK(q, 3).ok()) << q.ToString();
    EXPECT_FALSE(index->ComputeIntervals(NormalizedQuery::From(q)).ok())
        << q.ToString();
  }
}

TEST(PlanarIndexEdgeCaseTest, UnderflowingRatioStaysExact) {
  // |a_1| / c_1 = 1e-300 / 1e300 underflows to exactly zero; without the
  // degenerate-ratio exclusion the key cuts would evaluate (b' - E) / 0.0.
  PhiMatrix phi = RandomPhi(200, 2, 0.0, 10.0, 72);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1e300});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 1e-300}, 5.0, Comparison::kLessEqual};
  const auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexEdgeCaseTest, DenormalQueryComponentStaysExact) {
  PhiMatrix phi = RandomPhi(200, 2, 0.0, 10.0, 73);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  // 5e-324 is the smallest denormal; its ratio against c_1 = 1 is itself
  // denormal and must not enter the rmin/rmax envelope as a divisor.
  const ScalarProductQuery q{{2.0, 5e-324}, 30.0, Comparison::kLessEqual};
  const auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexEdgeCaseTest, OverflowingRatioStaysExact) {
  // |a_0| / c_0 = 1e300 / 1e-300 overflows to infinity, which would poison
  // the top-k lower bound; the axis is excluded instead.
  PhiMatrix phi = RandomPhi(200, 2, 0.0, 10.0, 74);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1e-300, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1e300, 1.0}, 1e301, Comparison::kLessEqual};
  const auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexEdgeCaseTest, AllRatiosDegenerateVerifiesEverything) {
  // Every axis excluded: the key carries no information, so the whole
  // dataset lands in the intermediate interval and is verified exactly.
  PhiMatrix phi = RandomPhi(100, 2, 0.0, 10.0, 75);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1e300, 1e300});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1e-300, 1e-300}, 1.0, Comparison::kLessEqual};
  const auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.verified, phi.size());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

TEST(PlanarIndexEdgeCaseTest, ZeroAndNegativeComponentsStayExact) {
  PhiMatrix phi = RandomPhi(200, 3, 0.0, 10.0, 76);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0});
  ASSERT_TRUE(index.ok());
  // A zero component excludes the axis; a negative component makes the
  // query octant-incompatible with a first-octant index.
  const ScalarProductQuery zero_axis{{1.0, 0.0, 2.0}, 25.0,
                                     Comparison::kLessEqual};
  const auto result = index->Inequality(zero_axis);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, zero_axis));

  const ScalarProductQuery negative{{1.0, -1.0, 2.0}, 25.0,
                                    Comparison::kLessEqual};
  EXPECT_FALSE(index->Inequality(negative).ok());
  // The exact answer is still available through the scan path.
  EXPECT_EQ(Sorted(ScanInequality(phi, negative).ids),
            BruteForceMatches(phi, negative));
}

TEST(PlanarIndexTest, MemoryUsageScalesWithN) {
  PhiMatrix small = RandomPhi(100, 2, 1.0, 10.0, 31);
  PhiMatrix large = RandomPhi(10000, 2, 1.0, 10.0, 31);
  auto a = PlanarIndex::BuildFirstOctant(&small, {1.0, 1.0});
  auto b = PlanarIndex::BuildFirstOctant(&large, {1.0, 1.0});
  EXPECT_GT(b->MemoryUsage(), a->MemoryUsage() * 50);
}

// The sorted keys (8 B) and row ids (4 B) are the only per-row storage of
// an index; the learned CDF and the fixed-size members must stay within
// 1% on top. A per-row sidecar coming back (a second key copy, a by-row
// key map) breaks this bound.
TEST(PlanarIndexTest, MemoryUsageIsTwelveBytesPerRow) {
  constexpr size_t kRows = 100000;
  PhiMatrix phi = RandomPhi(kRows, 2, 1.0, 100.0, 32);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0});
  ASSERT_TRUE(index.ok());
  const double per_row = static_cast<double>(index->MemoryUsage()) /
                         static_cast<double>(kRows);
  EXPECT_LE(per_row, 12.0 * 1.01);
}

}  // namespace
}  // namespace planar
