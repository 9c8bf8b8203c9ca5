// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/scan.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace planar {
namespace {

TEST(ScanInequalityTest, SimplePredicate) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {1.0, 1.0,    // 3
                                              2.0, 2.0,    // 6
                                              0.5, 0.25});  // 1
  const ScalarProductQuery q{{1.0, 2.0}, 3.0, Comparison::kLessEqual};
  const InequalityResult r = ScanInequality(phi, q);
  EXPECT_EQ(Sorted(r.ids), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(r.stats.verified, 3u);
  EXPECT_EQ(r.stats.index_used, -1);
  EXPECT_DOUBLE_EQ(r.stats.PruningFraction(), 0.0);
}

TEST(ScanInequalityTest, GreaterEqual) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {1.0, 2.0, 3.0});
  const ScalarProductQuery q{{1.0}, 2.0, Comparison::kGreaterEqual};
  EXPECT_EQ(Sorted(ScanInequality(phi, q).ids),
            (std::vector<uint32_t>{1, 2}));
}

TEST(ScanInequalityTest, EmptyResult) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {5.0});
  const ScalarProductQuery q{{1.0}, 4.0, Comparison::kLessEqual};
  EXPECT_TRUE(ScanInequality(phi, q).ids.empty());
}

TEST(ScanTopKTest, OrdersByDistance) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {1.0, 5.0, 9.0, 3.0});
  // Hyperplane x = 10, <= : all satisfy; nearest is 9, then 5, then 3.
  const ScalarProductQuery q{{1.0}, 10.0, Comparison::kLessEqual};
  auto r = ScanTopK(phi, q, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->neighbors.size(), 3u);
  EXPECT_EQ(r->neighbors[0].id, 2u);
  EXPECT_DOUBLE_EQ(r->neighbors[0].distance, 1.0);
  EXPECT_EQ(r->neighbors[1].id, 1u);
  EXPECT_EQ(r->neighbors[2].id, 3u);
}

TEST(ScanTopKTest, OnlySatisfyingPointsReturned) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {1.0, 11.0, 12.0});
  const ScalarProductQuery q{{1.0}, 10.0, Comparison::kLessEqual};
  auto r = ScanTopK(phi, q, 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->neighbors.size(), 1u);
  EXPECT_EQ(r->neighbors[0].id, 0u);
}

TEST(ScanTopKTest, RejectsZeroNormalAndZeroK) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {1.0});
  EXPECT_FALSE(
      ScanTopK(phi, {{0.0}, 1.0, Comparison::kLessEqual}, 1).ok());
  EXPECT_FALSE(
      ScanTopK(phi, {{1.0}, 1.0, Comparison::kLessEqual}, 0).ok());
}

TEST(ScanTopKTest, NormalizedDistance) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {0.0, 0.0});
  // 3x + 4y = 10 -> distance from origin = 10 / 5 = 2.
  const ScalarProductQuery q{{3.0, 4.0}, 10.0, Comparison::kLessEqual};
  auto r = ScanTopK(phi, q, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->neighbors[0].distance, 2.0);
}

TEST(ScanTopKTest, HugeKDoesNotOverReserve) {
  // k far beyond the row count: the TopKBuffer reservation is clamped to
  // the candidate count, so this completes instead of bad_alloc-ing.
  PhiMatrix phi = RandomPhi(1000, 3, 1.0, 100.0, 2);
  ScalarProductQuery q;
  q.a = {1.0, 1.0, 1.0};
  q.b = 1e9;  // everything matches
  q.cmp = Comparison::kLessEqual;
  const auto result = ScanTopK(phi, q, size_t{1} << 50);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 1000u);
}

}  // namespace
}  // namespace planar
