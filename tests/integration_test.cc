// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// End-to-end integration: dataset generators -> phi materialization ->
// multi-index build -> mixed query workloads, checked against the
// sequential scan on every configuration the paper's evaluation uses.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "core/function.h"
#include "core/index_set.h"
#include "core/scan.h"
#include "datagen/realworld_sim.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "tests/test_util.h"

namespace planar {
namespace {

struct IntegrationParams {
  SyntheticDistribution distribution;
  size_t dim;
  int rq;
  size_t budget;
};

class SyntheticIntegrationTest
    : public ::testing::TestWithParam<IntegrationParams> {};

TEST_P(SyntheticIntegrationTest, Eq18WorkloadMatchesScan) {
  const IntegrationParams p = GetParam();
  SyntheticSpec spec;
  spec.distribution = p.distribution;
  spec.num_points = 3000;
  spec.dim = p.dim;
  spec.seed = 11 + p.dim;
  const Dataset data = GenerateSynthetic(spec);
  PhiMatrix phi = MaterializePhi(data, IdentityFunction(p.dim));
  PhiMatrix reference = MaterializePhi(data, IdentityFunction(p.dim));

  Eq18Workload workload(phi, p.rq, 0.25, /*seed=*/101);
  IndexSetOptions options;
  options.budget = p.budget;
  auto set = PlanarIndexSet::Build(std::move(phi), workload.Domains(),
                                   options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  Eq18Workload queries(reference, p.rq, 0.25, /*seed=*/202);
  for (int trial = 0; trial < 15; ++trial) {
    const ScalarProductQuery q = queries.Next();
    const InequalityResult got = set->Inequality(q);
    ASSERT_EQ(Sorted(got.ids), BruteForceMatches(reference, q))
        << "trial " << trial;
    // Top-k agrees on distances.
    auto topk = set->TopK(q, 25);
    auto scan_topk = ScanTopK(reference, q, 25);
    ASSERT_TRUE(topk.ok());
    ASSERT_EQ(topk->neighbors.size(), scan_topk->neighbors.size());
    for (size_t i = 0; i < topk->neighbors.size(); ++i) {
      ASSERT_NEAR(topk->neighbors[i].distance,
                  scan_topk->neighbors[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SyntheticIntegrationTest,
    ::testing::Values(
        IntegrationParams{SyntheticDistribution::kIndependent, 2, 2, 10},
        IntegrationParams{SyntheticDistribution::kIndependent, 6, 4, 50},
        IntegrationParams{SyntheticDistribution::kIndependent, 14, 12, 20},
        IntegrationParams{SyntheticDistribution::kCorrelated, 6, 4, 50},
        IntegrationParams{SyntheticDistribution::kCorrelated, 10, 8, 20},
        IntegrationParams{SyntheticDistribution::kAnticorrelated, 6, 4, 50},
        IntegrationParams{SyntheticDistribution::kAnticorrelated, 10, 2,
                          10}));

TEST(ConsumptionIntegrationTest, PowerFactorWorkloadMatchesScan) {
  const Dataset data = SimulateConsumption(20000);
  PhiMatrix phi = MaterializePhi(data, PowerFactorFunction());
  PhiMatrix reference = MaterializePhi(data, PowerFactorFunction());
  PowerFactorWorkload workload(0.1, 1.0, /*seed=*/5);
  IndexSetOptions options;
  options.budget = 25;
  auto set = PlanarIndexSet::Build(std::move(phi), workload.Domains(),
                                   options);
  ASSERT_TRUE(set.ok());
  PowerFactorWorkload queries(0.1, 1.0, /*seed=*/6);
  RunningStats selectivity;
  for (int trial = 0; trial < 25; ++trial) {
    const ScalarProductQuery q = queries.Next();
    const InequalityResult got = set->Inequality(q);
    ASSERT_EQ(Sorted(got.ids), BruteForceMatches(reference, q));
    ASSERT_GE(got.stats.index_used, 0);  // (+,-) indices serve these
    selectivity.Add(static_cast<double>(got.ids.size()) / 20000.0);
  }
  // The threshold sweep produces non-trivial, varying selectivity.
  EXPECT_GT(selectivity.max(), selectivity.min());
  EXPECT_GT(selectivity.max(), 0.05);
}

TEST(ImageIntegrationTest, SimulatedCorelDatasetsWork) {
  for (int which = 0; which < 2; ++which) {
    const Dataset data =
        which == 0 ? SimulateCMoment(5000) : SimulateCTexture(5000);
    PhiMatrix phi = MaterializePhi(data, IdentityFunction(data.dim()));
    PhiMatrix reference = MaterializePhi(data, IdentityFunction(data.dim()));
    Eq18Workload workload(phi, 4, 0.25, /*seed=*/7);
    IndexSetOptions options;
    options.budget = 20;
    auto set = PlanarIndexSet::Build(std::move(phi), workload.Domains(),
                                     options);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    Eq18Workload queries(reference, 4, 0.25, /*seed=*/8);
    for (int trial = 0; trial < 10; ++trial) {
      const ScalarProductQuery q = queries.Next();
      ASSERT_EQ(Sorted(set->Inequality(q).ids),
                BruteForceMatches(reference, q))
          << "dataset " << which << " trial " << trial;
    }
  }
}

TEST(QuadraticIntegrationTest, DistancePredicateViaQuadraticFeatures) {
  // "All points within radius R of a center c" is
  //   |x|^2 - 2<c, x> <= R^2 - |c|^2,
  // a scalar product query over quadratic features. The center (and
  // radius) are known only at query time.
  Rng rng(9);
  Dataset points(2);
  for (int i = 0; i < 2000; ++i) {
    points.AppendRow({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  QuadraticFeatureFunction::Options fopts;
  fopts.include_cross_terms = false;
  QuadraticFeatureFunction fn(2, fopts);  // (x, y, x^2, y^2)
  PhiMatrix phi = MaterializePhi(points, fn);
  PhiMatrix reference = MaterializePhi(points, fn);

  // Centers in the (+,+) quadrant: a = (-2cx, -2cy, 1, 1).
  auto set = PlanarIndexSet::Build(
      std::move(phi),
      {{-20.0, -0.2}, {-20.0, -0.2}, {1.0, 1.0}, {1.0, 1.0}});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  for (int trial = 0; trial < 20; ++trial) {
    const double cx = rng.Uniform(0.1, 10.0);
    const double cy = rng.Uniform(0.1, 10.0);
    const double radius = rng.Uniform(1.0, 8.0);
    ScalarProductQuery q{{-2.0 * cx, -2.0 * cy, 1.0, 1.0},
                         radius * radius - cx * cx - cy * cy,
                         Comparison::kLessEqual};
    const InequalityResult got = set->Inequality(q);
    // Verify against plain geometry.
    std::vector<uint32_t> want;
    for (size_t i = 0; i < points.size(); ++i) {
      const double dx = points.at(i, 0) - cx;
      const double dy = points.at(i, 1) - cy;
      if (dx * dx + dy * dy <= radius * radius) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(Sorted(got.ids), want) << "trial " << trial;
  }
}

TEST(MixedMaintenanceIntegrationTest, InterleavedUpdatesAppendsQueries) {
  Rng rng(10);
  PhiMatrix phi(3);
  for (int i = 0; i < 1000; ++i) {
    phi.AppendRow({rng.Uniform(1, 100), rng.Uniform(1, 100),
                   rng.Uniform(1, 100)});
  }
  IndexSetOptions options;
  options.budget = 8;
  auto set = PlanarIndexSet::Build(
      std::move(phi), std::vector<ParameterDomain>(3, {1.0, 6.0}), options);
  ASSERT_TRUE(set.ok());

  std::vector<double> row(3);
  for (int round = 0; round < 10; ++round) {
    // A few updates...
    for (int u = 0; u < 20; ++u) {
      const uint32_t target =
          static_cast<uint32_t>(rng.UniformInt(set->size()));
      for (double& v : row) v = rng.Uniform(1.0, 100.0);
      ASSERT_TRUE(set->UpdateRow(target, row.data()).ok());
    }
    // ...a few appends...
    for (int a = 0; a < 5; ++a) {
      for (double& v : row) v = rng.Uniform(1.0, 100.0);
      ASSERT_TRUE(set->AppendRow(row.data()).ok());
    }
    // ...then exact answers are still produced.
    ScalarProductQuery q{{rng.Uniform(1, 6), rng.Uniform(1, 6),
                          rng.Uniform(1, 6)},
                         rng.Uniform(100, 900), Comparison::kLessEqual};
    ASSERT_EQ(Sorted(set->Inequality(q).ids),
              BruteForceMatches(set->phi(), q))
        << "round " << round;
  }
  EXPECT_EQ(set->size(), 1050u);
}

}  // namespace
}  // namespace planar
