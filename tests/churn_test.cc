// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Sustained-churn property test: long random interleavings of point
// updates, batch updates, appends, and queries must remain exactly
// scan-equivalent throughout, including after transparent rebuilds
// triggered by translation escapes.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_set.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace planar {
namespace {

struct ChurnParams {
  double escape_probability;  // updates escaping the translation margin
  uint64_t seed;
};

class ChurnTest : public ::testing::TestWithParam<ChurnParams> {};

TEST_P(ChurnTest, LongInterleavingStaysScanEquivalent) {
  const ChurnParams p = GetParam();
  Rng rng(p.seed);
  PhiMatrix initial(3);
  for (int i = 0; i < 800; ++i) {
    initial.AppendRow({rng.Uniform(1, 100), rng.Uniform(1, 100),
                       rng.Uniform(1, 100)});
  }
  IndexSetOptions options;
  options.budget = 5;
  auto set = PlanarIndexSet::Build(
      std::move(initial), std::vector<ParameterDomain>(3, {1.0, 6.0}),
      options);
  ASSERT_TRUE(set.ok());

  std::vector<double> row(3);
  auto random_row = [&](bool escape) {
    for (double& v : row) {
      v = escape ? rng.Uniform(-5000.0, 5000.0) : rng.Uniform(1.0, 100.0);
    }
  };

  for (int step = 0; step < 400; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.45) {
      // Point update (sometimes escaping the translation bounds).
      const uint32_t target =
          static_cast<uint32_t>(rng.UniformInt(set->size()));
      random_row(rng.Bernoulli(p.escape_probability));
      ASSERT_TRUE(set->UpdateRow(target, row.data()).ok());
    } else if (action < 0.6) {
      random_row(false);
      ASSERT_TRUE(set->AppendRow(row.data()).ok());
    } else {
      ScalarProductQuery q;
      q.a = {rng.Uniform(1, 6), rng.Uniform(1, 6), rng.Uniform(1, 6)};
      q.b = rng.Uniform(-500, 1500);
      q.cmp = rng.Bernoulli(0.5) ? Comparison::kLessEqual
                                 : Comparison::kGreaterEqual;
      ASSERT_EQ(Sorted(set->Inequality(q).ids),
                BruteForceMatches(set->phi(), q))
          << "step " << step;
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(ValidateIndexSet(*set).ok()) << "step " << step;
    }
  }
  if (p.escape_probability > 0.0) {
    EXPECT_GT(set->rebuild_count(), 0u);  // escapes actually exercised
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnTest,
    ::testing::Values(ChurnParams{0.0, 1}, ChurnParams{0.05, 2}));

}  // namespace
}  // namespace planar
