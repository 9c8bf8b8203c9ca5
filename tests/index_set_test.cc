// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/index_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/workload.h"
#include "tests/test_util.h"

namespace planar {
namespace {

IndexSetOptions WithBudget(size_t budget) {
  IndexSetOptions o;
  o.budget = budget;
  return o;
}

std::vector<ParameterDomain> PositiveDomains(size_t d, double lo, double hi) {
  return std::vector<ParameterDomain>(d, ParameterDomain{lo, hi});
}

TEST(IndexSetBuildTest, SamplesBudgetIndices) {
  PhiMatrix phi = RandomPhi(200, 3, 1.0, 100.0, 40);
  auto set = PlanarIndexSet::Build(std::move(phi), PositiveDomains(3, 1.0, 8.0),
                                   WithBudget(10));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->num_indices(), 10u);
  EXPECT_EQ(set->size(), 200u);
}

TEST(IndexSetBuildTest, RejectsStraddlingDomain) {
  PhiMatrix phi = RandomPhi(10, 2, 1.0, 10.0, 41);
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{-1.0, 1.0}, {1.0, 2.0}}, WithBudget(2));
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexSetBuildTest, RejectsDimensionMismatch) {
  PhiMatrix phi = RandomPhi(10, 2, 1.0, 10.0, 42);
  EXPECT_FALSE(
      PlanarIndexSet::Build(std::move(phi), PositiveDomains(3, 1.0, 2.0))
          .ok());
}

TEST(IndexSetBuildTest, DedupCollapsesDegenerateDomain) {
  // A point domain can only produce one distinct normal.
  PhiMatrix phi = RandomPhi(20, 2, 1.0, 10.0, 43);
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{2.0, 2.0}, {3.0, 3.0}}, WithBudget(10));
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_indices(), 1u);
}

TEST(IndexSetBuildTest, RejectsOverflowingOrOversizedBudget) {
  // budget * 16 sampling attempts used to wrap: 2^60 * 16 wrapped to 0
  // attempts (Internal), 2^60 + 1 to 16 (a silent OK with <= 16 indices).
  // The budget cap rejects both before any sampling.
  const size_t huge = size_t{1} << 60;
  for (const size_t budget : {huge, huge + 1, kMaxIndexBudget + 1}) {
    auto set = PlanarIndexSet::Build(RandomPhi(20, 2, 1.0, 10.0, 45),
                                     PositiveDomains(2, 1.0, 8.0),
                                     WithBudget(budget));
    ASSERT_FALSE(set.ok()) << budget;
    EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument) << budget;
  }
  // The cap itself is accepted.
  EXPECT_TRUE(PlanarIndexSet::Build(RandomPhi(20, 2, 1.0, 10.0, 47),
                                    {{2.0, 2.0}, {3.0, 3.0}},
                                    WithBudget(kMaxIndexBudget))
                  .ok());
}

TEST(IndexSetBuildTest, NegativeDomainsYieldNegativeOctant) {
  PhiMatrix phi = RandomPhi(50, 2, -10.0, 10.0, 44);
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 4.0}, {-4.0, -1.0}}, WithBudget(3));
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->index(0).octant(), Octant::FromNormal({1.0, -1.0}));
}

TEST(IndexSetQueryTest, MatchesScanAcrossQueries) {
  PhiMatrix data = RandomPhi(500, 3, 1.0, 100.0, 45);
  PhiMatrix copy(3);
  for (size_t i = 0; i < data.size(); ++i) copy.AppendRow(data.row(i));
  auto set = PlanarIndexSet::Build(std::move(copy),
                                   PositiveDomains(3, 1.0, 8.0),
                                   WithBudget(8));
  ASSERT_TRUE(set.ok());
  Rng rng(46);
  for (int trial = 0; trial < 20; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1.0, 8.0), rng.Uniform(1.0, 8.0),
           rng.Uniform(1.0, 8.0)};
    q.b = rng.Uniform(100.0, 1200.0);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual
                           : Comparison::kGreaterEqual;
    const InequalityResult result = set->Inequality(q);
    EXPECT_EQ(Sorted(result.ids), BruteForceMatches(data, q)) << trial;
    EXPECT_GE(result.stats.index_used, 0);
  }
}

TEST(IndexSetQueryTest, ScanFallbackForForeignOctant) {
  PhiMatrix phi = RandomPhi(100, 2, -10.0, 10.0, 47);
  PhiMatrix copy(2);
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto set = PlanarIndexSet::Build(std::move(copy),
                                   PositiveDomains(2, 1.0, 4.0), WithBudget(4));
  ASSERT_TRUE(set.ok());
  // Negative parameter: no positive-octant index can serve it.
  const ScalarProductQuery q{{1.0, -2.0}, 5.0, Comparison::kLessEqual};
  const InequalityResult result = set->Inequality(q);
  EXPECT_EQ(result.stats.index_used, -1);
  EXPECT_EQ(Sorted(result.ids), BruteForceMatches(phi, q));
}

TEST(IndexSetSelectionTest, ParallelIndexWinsUnderBothHeuristics) {
  PhiMatrix base = RandomPhi(300, 3, 1.0, 50.0, 48);
  const std::vector<std::vector<double>> normals = {
      {1.0, 1.0, 1.0}, {2.0, 3.0, 4.0}, {5.0, 1.0, 2.0}};
  for (auto selector : {IndexSetOptions::Selector::kStretch,
                        IndexSetOptions::Selector::kAngle}) {
    PhiMatrix copy(3);
    for (size_t i = 0; i < base.size(); ++i) copy.AppendRow(base.row(i));
    IndexSetOptions options;
    options.selector = selector;
    auto set = PlanarIndexSet::BuildWithNormals(std::move(copy), normals,
                                                Octant::First(3), options);
    ASSERT_TRUE(set.ok());
    // Query parallel to normals[1].
    const NormalizedQuery q = NormalizedQuery::From(
        {{4.0, 6.0, 8.0}, 100.0, Comparison::kLessEqual});
    EXPECT_EQ(set->SelectBestIndex(q), 1);
  }
}

TEST(IndexSetSelectionTest, ParallelIndexYieldsEmptyIntermediate) {
  PhiMatrix phi = RandomPhi(1000, 2, 1.0, 100.0, 49);
  PhiMatrix copy(2);
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto set = PlanarIndexSet::BuildWithNormals(
      std::move(copy), {{1.0, 3.0}, {3.0, 1.0}}, Octant::First(2));
  ASSERT_TRUE(set.ok());
  const ScalarProductQuery q{{2.0, 6.0}, 300.0, Comparison::kLessEqual};
  const InequalityResult result = set->Inequality(q);
  EXPECT_EQ(result.stats.index_used, 0);
  EXPECT_EQ(result.stats.verified, 0u);  // |II| = 0 for the parallel index
  EXPECT_EQ(Sorted(result.ids), BruteForceMatches(phi, q));
}

// The exact |II| of `q` on every index of `set`, in index order.
std::vector<size_t> ExactIntermediates(const PlanarIndexSet& set,
                                       const NormalizedQuery& q) {
  std::vector<size_t> ii;
  for (size_t i = 0; i < set.num_indices(); ++i) {
    const Result<PlanarIndex::Intervals> iv = set.index(i).ComputeIntervals(q);
    EXPECT_TRUE(iv.ok());
    ii.push_back(iv->intermediate());
  }
  return ii;
}

// Eq.-18 queries, alternating <= and >=.
ScalarProductQuery NextQuery(Eq18Workload* workload, int trial) {
  ScalarProductQuery q = workload->Next();
  if (trial % 2 == 1) q.cmp = Comparison::kGreaterEqual;
  return q;
}

// Each candidate is scored by its learned CDF's predicted |II|, within
// 2 (max_error + 1) of the exact |II|, so the chosen index's exact |II|
// is at most the exact minimum + 4 (max_error + 2).
TEST(IndexSetSelectionTest, PredictedCountStaysWithinBoundOfExactMinimum) {
  for (const size_t dim : {2u, 6u}) {
    for (const size_t budget : {10u, 50u}) {
      PhiMatrix phi = RandomPhi(20000, dim, 0.0, 100.0, 60 + dim);
      Eq18Workload workload(phi, /*rq=*/8, 0.25, /*seed=*/61 + budget);
      auto set = PlanarIndexSet::Build(std::move(phi), workload.Domains(),
                                       WithBudget(budget));
      ASSERT_TRUE(set.ok()) << set.status().ToString();
      size_t max_error = 0;
      for (size_t i = 0; i < set->num_indices(); ++i) {
        const LearnedCdf& cdf = set->index(i).learned_cdf();
        ASSERT_FALSE(cdf.empty()) << "dim " << dim << " index " << i;
        max_error = std::max(max_error, cdf.max_error());
      }
      const size_t slack = 4 * (max_error + 2);
      for (int trial = 0; trial < 100; ++trial) {
        const NormalizedQuery q =
            NormalizedQuery::From(NextQuery(&workload, trial));
        const int best = set->SelectBestIndex(q);
        ASSERT_GE(best, 0);
        const std::vector<size_t> ii = ExactIntermediates(*set, q);
        const size_t exact_min = *std::min_element(ii.begin(), ii.end());
        EXPECT_LE(ii[static_cast<size_t>(best)], exact_min + slack)
            << "dim " << dim << " budget " << budget << " trial " << trial;
      }
    }
  }
}

// Below LearnedCdf::Options::min_keys no model is built, and every
// candidate is scored by its exact |II|: the choice is the exact argmin,
// lowest index first.
TEST(IndexSetSelectionTest, SmallSetPicksExactArgmin) {
  PhiMatrix phi = RandomPhi(3000, 3, 0.0, 100.0, 62);
  Eq18Workload workload(phi, /*rq=*/8, 0.25, /*seed=*/63);
  auto set = PlanarIndexSet::Build(std::move(phi), workload.Domains(),
                                   WithBudget(20));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  for (size_t i = 0; i < set->num_indices(); ++i) {
    ASSERT_TRUE(set->index(i).learned_cdf().empty()) << i;
  }
  for (int trial = 0; trial < 100; ++trial) {
    const NormalizedQuery q =
        NormalizedQuery::From(NextQuery(&workload, trial));
    const std::vector<size_t> ii = ExactIntermediates(*set, q);
    size_t argmin = 0;
    for (size_t i = 1; i < ii.size(); ++i) {
      if (ii[i] < ii[argmin]) argmin = i;
    }
    EXPECT_EQ(set->SelectBestIndex(q), static_cast<int>(argmin)) << trial;
  }
}

TEST(IndexSetSelectionTest, ParallelIndexWinsOnModelledSet) {
  PhiMatrix phi = RandomPhi(20000, 2, 1.0, 100.0, 64);
  PhiMatrix copy(2);
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto set = PlanarIndexSet::BuildWithNormals(
      std::move(copy), {{3.0, 1.0}, {1.0, 3.0}, {2.0, 2.0}},
      Octant::First(2));
  ASSERT_TRUE(set.ok());
  ASSERT_FALSE(set->index(1).learned_cdf().empty());
  const ScalarProductQuery q{{2.0, 6.0}, 300.0, Comparison::kLessEqual};
  const InequalityResult result = set->Inequality(q);
  EXPECT_EQ(result.stats.index_used, 1);
  EXPECT_EQ(result.stats.verified, 0u);  // |II| = 0 for the parallel index
  EXPECT_EQ(Sorted(result.ids), BruteForceMatches(phi, q));
}

TEST(IndexSetTopKTest, MatchesScanTopK) {
  PhiMatrix data = RandomPhi(400, 3, 1.0, 100.0, 50);
  PhiMatrix copy(3);
  for (size_t i = 0; i < data.size(); ++i) copy.AppendRow(data.row(i));
  auto set = PlanarIndexSet::Build(std::move(copy),
                                   PositiveDomains(3, 1.0, 6.0), WithBudget(6));
  ASSERT_TRUE(set.ok());
  const ScalarProductQuery q{{2.0, 3.0, 1.0}, 400.0, Comparison::kLessEqual};
  auto got = set->TopK(q, 15);
  auto want = ScanTopK(data, q, 15);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->neighbors.size(), want->neighbors.size());
  for (size_t i = 0; i < got->neighbors.size(); ++i) {
    EXPECT_NEAR(got->neighbors[i].distance, want->neighbors[i].distance,
                1e-9);
  }
}

TEST(IndexSetMaintenanceTest, UpdateKeepsAllIndicesConsistent) {
  PhiMatrix data = RandomPhi(200, 2, 1.0, 100.0, 51);
  PhiMatrix copy(2);
  for (size_t i = 0; i < data.size(); ++i) copy.AppendRow(data.row(i));
  auto set = PlanarIndexSet::Build(std::move(copy),
                                   PositiveDomains(2, 1.0, 5.0), WithBudget(5));
  ASSERT_TRUE(set.ok());
  Rng rng(52);
  std::vector<double> row(2);
  for (int i = 0; i < 60; ++i) {
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(200));
    row[0] = rng.Uniform(1.0, 100.0);
    row[1] = rng.Uniform(1.0, 100.0);
    ASSERT_TRUE(set->UpdateRow(target, row.data()).ok());
    data.SetRow(target, row.data());
  }
  const ScalarProductQuery q{{2.0, 3.0}, 250.0, Comparison::kLessEqual};
  EXPECT_EQ(Sorted(set->Inequality(q).ids), BruteForceMatches(data, q));
  EXPECT_EQ(set->rebuild_count(), 0u);  // updates stayed within bounds
}

TEST(IndexSetMaintenanceTest, EscapingUpdateTriggersRebuild) {
  PhiMatrix phi = RandomPhi(50, 1, 1.0, 10.0, 53);
  auto set = PlanarIndexSet::Build(std::move(phi),
                                   PositiveDomains(1, 1.0, 2.0), WithBudget(2));
  ASSERT_TRUE(set.ok());
  const double escaped[] = {-500.0};
  ASSERT_TRUE(set->UpdateRow(7, escaped).ok());
  EXPECT_GT(set->rebuild_count(), 0u);
  const ScalarProductQuery q{{1.0}, 5.0, Comparison::kLessEqual};
  EXPECT_EQ(Sorted(set->Inequality(q).ids),
            BruteForceMatches(set->phi(), q));
}

TEST(IndexSetMaintenanceTest, AppendRows) {
  PhiMatrix phi = RandomPhi(100, 2, 1.0, 50.0, 54);
  auto set = PlanarIndexSet::Build(std::move(phi),
                                   PositiveDomains(2, 1.0, 4.0), WithBudget(3));
  ASSERT_TRUE(set.ok());
  for (int i = 0; i < 30; ++i) {
    const double row[] = {5.0 + i, 10.0};
    ASSERT_TRUE(set->AppendRow(row).ok());
  }
  EXPECT_EQ(set->size(), 130u);
  const ScalarProductQuery q{{1.0, 2.0}, 60.0, Comparison::kLessEqual};
  EXPECT_EQ(Sorted(set->Inequality(q).ids),
            BruteForceMatches(set->phi(), q));
}

TEST(IndexSetMaintenanceTest, AddRemoveIndex) {
  PhiMatrix phi = RandomPhi(100, 2, 1.0, 50.0, 56);
  auto set = PlanarIndexSet::Build(std::move(phi),
                                   PositiveDomains(2, 1.0, 4.0), WithBudget(2));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->AddIndex({9.0, 1.0}, Octant::First(2)).ok());
  EXPECT_EQ(set->num_indices(), 3u);
  ASSERT_TRUE(set->RemoveIndex(0).ok());
  EXPECT_EQ(set->num_indices(), 2u);
  EXPECT_FALSE(set->RemoveIndex(99).ok());
  const ScalarProductQuery q{{9.0, 1.0}, 200.0, Comparison::kLessEqual};
  const InequalityResult r = set->Inequality(q);
  EXPECT_EQ(Sorted(r.ids), BruteForceMatches(set->phi(), q));
}

TEST(IndexSetTest, MemoryUsageGrowsWithIndices) {
  PhiMatrix a = RandomPhi(1000, 2, 1.0, 50.0, 57);
  PhiMatrix b = RandomPhi(1000, 2, 1.0, 50.0, 57);
  auto one = PlanarIndexSet::Build(std::move(a), PositiveDomains(2, 1.0, 9.0),
                                   WithBudget(1));
  auto many = PlanarIndexSet::Build(std::move(b), PositiveDomains(2, 1.0, 9.0),
                                    WithBudget(10));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_GT(many->MemoryUsage(), one->MemoryUsage());
}

TEST(IndexSetTest, DeterministicForSeed) {
  PhiMatrix a = RandomPhi(50, 2, 1.0, 50.0, 58);
  PhiMatrix b = RandomPhi(50, 2, 1.0, 50.0, 58);
  IndexSetOptions options = WithBudget(4);
  options.seed = 77;
  auto s1 = PlanarIndexSet::Build(std::move(a), PositiveDomains(2, 1.0, 9.0),
                                  options);
  auto s2 = PlanarIndexSet::Build(std::move(b), PositiveDomains(2, 1.0, 9.0),
                                  options);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->num_indices(), s2->num_indices());
  for (size_t i = 0; i < s1->num_indices(); ++i) {
    EXPECT_EQ(s1->index(i).normal(), s2->index(i).normal());
  }
}

TEST(IndexSetEdgeCaseTest, NonFiniteInequalityFallsBackToExactScan) {
  PhiMatrix phi = RandomPhi(300, 3, 1.0, 100.0, 48);
  PhiMatrix reference(3);
  for (size_t i = 0; i < phi.size(); ++i) reference.AppendRow(phi.row(i));
  auto set = PlanarIndexSet::Build(std::move(phi),
                                   PositiveDomains(3, 1.0, 8.0), WithBudget(4));
  ASSERT_TRUE(set.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScalarProductQuery queries[] = {
      {{nan, 2.0, 3.0}, 50.0, Comparison::kLessEqual},
      {{1.0, inf, 3.0}, 50.0, Comparison::kLessEqual},
      {{1.0, 2.0, 3.0}, nan, Comparison::kGreaterEqual},
  };
  for (const ScalarProductQuery& q : queries) {
    const InequalityResult result = set->Inequality(q);
    EXPECT_EQ(result.stats.index_used, -1) << q.ToString();
    EXPECT_EQ(Sorted(result.ids), BruteForceMatches(reference, q))
        << q.ToString();
    EXPECT_FALSE(set->TopK(q, 5).ok()) << q.ToString();
    EXPECT_EQ(set->Explain(q).index_used, -1) << q.ToString();
    const auto bounds = set->EstimateSelectivity(q);
    EXPECT_EQ(bounds.lo, 0.0);
    EXPECT_EQ(bounds.hi, 1.0);
  }
}

}  // namespace
}  // namespace planar
