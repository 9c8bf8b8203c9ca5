// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The axis-exclusion extension (PlanarIndexOptions::enable_axis_exclusion)
// must (1) never change query answers, (2) never widen the intermediate
// interval, and (3) shrink it substantially when a query has an
// outlier-ratio axis.

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/planar_index.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

PlanarIndexOptions WithExclusion(bool on) {
  PlanarIndexOptions o;
  o.enable_axis_exclusion = on;
  return o;
}

TEST(AxisExclusionTest, AnswersIdenticalWithAndWithout) {
  Rng rng(1);
  PhiMatrix phi = RandomPhi(2000, 5, -10.0, 10.0, 2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> normal(5);
    for (double& c : normal) c = rng.Uniform(0.1, 10.0);
    auto with = PlanarIndex::BuildFirstOctant(&phi, normal,
                                              WithExclusion(true));
    auto without = PlanarIndex::BuildFirstOctant(&phi, normal,
                                                 WithExclusion(false));
    ASSERT_TRUE(with.ok());
    ASSERT_TRUE(without.ok());
    ScalarProductQuery q;
    q.a.resize(5);
    for (double& a : q.a) a = rng.Uniform(0.05, 20.0);
    q.b = rng.Uniform(0.0, 200.0);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual
                           : Comparison::kGreaterEqual;
    const auto want = BruteForceMatches(phi, q);
    auto r1 = with->Inequality(q);
    auto r2 = without->Inequality(q);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(Sorted(r1->ids), want);
    EXPECT_EQ(Sorted(r2->ids), want);
  }
}

TEST(AxisExclusionTest, NeverWidensTheIntermediateInterval) {
  Rng rng(3);
  PhiMatrix phi = RandomPhi(2000, 6, 1.0, 100.0, 4);
  std::vector<double> normal(6, 1.0);
  auto with = PlanarIndex::BuildFirstOctant(&phi, normal,
                                            WithExclusion(true));
  auto without = PlanarIndex::BuildFirstOctant(&phi, normal,
                                               WithExclusion(false));
  for (int trial = 0; trial < 50; ++trial) {
    ScalarProductQuery q;
    q.a.resize(6);
    for (double& a : q.a) a = rng.Uniform(0.01, 50.0);  // wild ratios
    q.b = rng.Uniform(50.0, 5000.0);
    const NormalizedQuery norm = NormalizedQuery::From(q);
    const auto iv_with = with->ComputeIntervals(norm);
    const auto iv_without = without->ComputeIntervals(norm);
    ASSERT_TRUE(iv_with.ok());
    ASSERT_TRUE(iv_without.ok());
    const size_t ii_with = iv_with->larger_begin - iv_with->smaller_end;
    const size_t ii_without =
        iv_without->larger_begin - iv_without->smaller_end;
    // The true interval never widens; the floating-point guard band can
    // move a point or two across the boundary.
    EXPECT_LE(ii_with, ii_without + 2) << "trial " << trial;
  }
}

TEST(AxisExclusionTest, ShrinksIntervalForOutlierAxis) {
  // One query axis has a tiny coefficient but the index normal weights it
  // like the others: without exclusion rmin collapses and almost nothing
  // is rejected. With exclusion the axis contributes only its value
  // spread — which is narrow here — so the interval collapses.
  Rng rng(5);
  PhiMatrix phi(3);
  for (int i = 0; i < 5000; ++i) {
    phi.AppendRow({rng.Uniform(1.0, 100.0), rng.Uniform(1.0, 100.0),
                   rng.Uniform(40.0, 45.0)});  // narrow third axis
  }
  const std::vector<double> normal{1.0, 1.0, 1.0};
  auto with = PlanarIndex::BuildFirstOctant(&phi, normal,
                                            WithExclusion(true));
  auto without = PlanarIndex::BuildFirstOctant(&phi, normal,
                                               WithExclusion(false));
  const ScalarProductQuery q{{1.0, 1.0, 1e-4}, 110.0,
                             Comparison::kLessEqual};
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const auto iv_with = with->ComputeIntervals(norm).value();
  const auto iv_without = without->ComputeIntervals(norm).value();
  const size_t ii_with = iv_with.larger_begin - iv_with.smaller_end;
  const size_t ii_without = iv_without.larger_begin - iv_without.smaller_end;
  EXPECT_LT(ii_with, ii_without / 2);
  // And the answers agree with the scan regardless.
  EXPECT_EQ(Sorted(with->Inequality(q)->ids), BruteForceMatches(phi, q));
  EXPECT_EQ(Sorted(without->Inequality(q)->ids), BruteForceMatches(phi, q));
}

TEST(AxisExclusionTest, ExactZeroAxesStillWork) {
  // Exclusion generalizes the zero-axis path; mixing exact zeros with
  // outliers must stay exact.
  PhiMatrix phi = RandomPhi(1000, 4, -5.0, 5.0, 6);
  auto index = PlanarIndex::BuildFirstOctant(
      &phi, {1.0, 1.0, 1.0, 1.0}, WithExclusion(true));
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{2.0, 0.0, 1e-5, 1.0}, 3.0,
                             Comparison::kLessEqual};
  EXPECT_EQ(Sorted(index->Inequality(q)->ids), BruteForceMatches(phi, q));
}

TEST(AxisExclusionTest, TopKUnaffectedByExclusion) {
  Rng rng(7);
  PhiMatrix phi = RandomPhi(3000, 4, 1.0, 50.0, 8);
  auto with = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0, 2.0},
                                            WithExclusion(true));
  auto without = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0, 2.0},
                                               WithExclusion(false));
  const ScalarProductQuery q{{3.0, 1.0, 0.001, 2.0}, 200.0,
                             Comparison::kLessEqual};
  auto a = with->TopK(q, 40);
  auto b = without->TopK(q, 40);
  auto c = ScanTopK(phi, q, 40);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->neighbors.size(), c->neighbors.size());
  for (size_t i = 0; i < a->neighbors.size(); ++i) {
    EXPECT_NEAR(a->neighbors[i].distance, c->neighbors[i].distance, 1e-9);
    EXPECT_NEAR(b->neighbors[i].distance, c->neighbors[i].distance, 1e-9);
  }
}

TEST(CollectRangeTest, ReturnsRankOrderedIds) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {5.0, 1.0, 3.0, 2.0, 4.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0});
  ASSERT_TRUE(index.ok());
  std::vector<uint32_t> ids;
  index->CollectRange(0, 5, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3, 2, 4, 0}));
  ids.clear();
  index->CollectRange(1, 3, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{3, 2}));
  ids.clear();
  index->CollectRange(2, 2, &ids);
  EXPECT_TRUE(ids.empty());
}

TEST(CollectRangeTest, IntervalsPlusCollectEqualsInequality) {
  PhiMatrix phi = RandomPhi(800, 3, 1.0, 100.0, 9);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{2.0, 1.0, 3.0}, 300.0, Comparison::kLessEqual};
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const auto iv = index->ComputeIntervals(norm).value();
  std::vector<uint32_t> manual;
  index->CollectRange(0, iv.smaller_end, &manual);  // accepted outright
  std::vector<uint32_t> middle;
  index->CollectRange(iv.smaller_end, iv.larger_begin, &middle);
  for (uint32_t id : middle) {
    if (q.Matches(phi.row(id))) manual.push_back(id);
  }
  EXPECT_EQ(Sorted(manual), Sorted(index->Inequality(q)->ids));
}

}  // namespace
}  // namespace planar
