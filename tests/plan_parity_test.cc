// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The set-level query paths plan each query once, during index selection,
// and serve it from that plan. This suite checks every such path against
// the reference route built from the public per-index calls alone:
// SelectBestIndex, then ComputeIntervals on the winner for the hybrid
// scan-fallback test, then the winner's Inequality / CountInequality /
// AggregateInequality / TopK(norm, deadline), each of which plans the
// query afresh. Answers must agree exactly: ids in order, every
// statistic including index_used, count bounds and estimates, sums,
// neighbours, EXPLAIN fields and error statuses.
//
// Matrix: every selector x both comparisons x scan_fallback_fraction in
// {0.85, 1.0}, on a 2-d set and a 65-d set (wider than the planner's
// inline axis storage), over random, negative-b, zero-axis,
// denormal-ratio, all-denormal, degenerate, foreign-octant, huge and
// non-finite queries.

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fold.h"
#include "core/index_set.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

using Selector = IndexSetOptions::Selector;

template <typename T>
bool SameStatus(const Result<T>& got, const Result<T>& want,
                const std::string& context) {
  EXPECT_EQ(got.ok(), want.ok()) << context;
  if (got.ok() != want.ok()) return false;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    EXPECT_EQ(got.status().message(), want.status().message()) << context;
    return false;
  }
  return true;
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want,
                     const std::string& context) {
  EXPECT_EQ(got.num_points, want.num_points) << context;
  EXPECT_EQ(got.accepted_directly, want.accepted_directly) << context;
  EXPECT_EQ(got.rejected_directly, want.rejected_directly) << context;
  EXPECT_EQ(got.verified, want.verified) << context;
  EXPECT_EQ(got.result_size, want.result_size) << context;
  EXPECT_EQ(got.index_used, want.index_used) << context;
}

void ExpectSame(const Result<InequalityResult>& got,
                const Result<InequalityResult>& want,
                const std::string& context) {
  if (!SameStatus(got, want, context)) return;
  EXPECT_EQ(got->ids, want->ids) << context;  // exact order
  ExpectSameStats(got->stats, want->stats, context);
}

void ExpectSameCount(const CountResult& got, const CountResult& want,
                     const std::string& context) {
  EXPECT_EQ(got.lower, want.lower) << context;
  EXPECT_EQ(got.upper, want.upper) << context;
  EXPECT_EQ(got.estimate, want.estimate) << context;
  EXPECT_EQ(got.exact, want.exact) << context;
  EXPECT_EQ(got.refined, want.refined) << context;
  EXPECT_EQ(got.model_estimated, want.model_estimated) << context;
  ExpectSameStats(got.stats, want.stats, context);
}

void ExpectSame(const Result<CountResult>& got,
                const Result<CountResult>& want, const std::string& context) {
  if (!SameStatus(got, want, context)) return;
  ExpectSameCount(*got, *want, context);
}

void ExpectSame(const Result<AggregateResult>& got,
                const Result<AggregateResult>& want,
                const std::string& context) {
  if (!SameStatus(got, want, context)) return;
  // Bit-equal doubles: both sides run the same canonical summation.
  EXPECT_EQ(got->sum_lower, want->sum_lower) << context;
  EXPECT_EQ(got->sum_upper, want->sum_upper) << context;
  EXPECT_EQ(got->sum, want->sum) << context;
  EXPECT_EQ(got->exact, want->exact) << context;
  EXPECT_EQ(got->refined, want->refined) << context;
  ExpectSameCount(got->count, want->count, context);
}

void ExpectSame(const Result<TopKResult>& got, const Result<TopKResult>& want,
                const std::string& context) {
  if (!SameStatus(got, want, context)) return;
  ASSERT_EQ(got->neighbors.size(), want->neighbors.size()) << context;
  for (size_t i = 0; i < want->neighbors.size(); ++i) {
    EXPECT_EQ(got->neighbors[i].id, want->neighbors[i].id) << context;
    EXPECT_EQ(got->neighbors[i].distance, want->neighbors[i].distance)
        << context;
  }
  EXPECT_EQ(got->stats.num_points, want->stats.num_points) << context;
  EXPECT_EQ(got->stats.verified_intermediate,
            want->stats.verified_intermediate)
      << context;
  EXPECT_EQ(got->stats.scanned_accept_region,
            want->stats.scanned_accept_region)
      << context;
  EXPECT_EQ(got->stats.early_terminated, want->stats.early_terminated)
      << context;
  EXPECT_EQ(got->stats.index_used, want->stats.index_used) << context;
}

// The reference route: select, re-plan the winner for the fallback test,
// then serve through the winner's public entry point.
template <typename T, typename Scan, typename Serve>
Result<T> ReferenceRoute(const PlanarIndexSet& set,
                         const ScalarProductQuery& q, double refine_floor,
                         const Scan& scan, const Serve& serve) {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const int best = set.SelectBestIndex(norm);
  if (best < 0) return scan();
  const PlanarIndex& index = set.index(static_cast<size_t>(best));
  const double fraction = set.options().scan_fallback_fraction;
  if (fraction < 1.0) {
    const Result<PlanarIndex::Intervals> iv = index.ComputeIntervals(norm);
    EXPECT_TRUE(iv.ok());
    const double ii = static_cast<double>(iv->larger_begin - iv->smaller_end);
    if (ii > refine_floor &&
        ii > fraction * static_cast<double>(set.size())) {
      return scan();
    }
  }
  Result<T> result = serve(index, norm);
  if (result.ok()) StatsOf(result.value()).index_used = best;
  return result;
}

constexpr double kAlwaysRefines = -std::numeric_limits<double>::infinity();

Result<InequalityResult> ReferenceInequality(const PlanarIndexSet& set,
                                             const ScalarProductQuery& q) {
  const Deadline deadline = Deadline::Infinite();
  return ReferenceRoute<InequalityResult>(
      set, q, kAlwaysRefines,
      [&] { return ScanInequality(set.phi(), q, deadline); },
      [&](const PlanarIndex& index, const NormalizedQuery& norm) {
        return index.Inequality(norm, deadline);
      });
}

Result<CountResult> ReferenceCount(const PlanarIndexSet& set,
                                   const ScalarProductQuery& q,
                                   const CountTolerance& tolerance) {
  const Deadline deadline = Deadline::Infinite();
  return ReferenceRoute<CountResult>(
      set, q, tolerance.Allowed(static_cast<double>(set.size())),
      [&] { return ScanCountInequality(set.phi(), q, deadline); },
      [&](const PlanarIndex& index, const NormalizedQuery& norm) {
        return index.CountInequality(norm, tolerance, deadline);
      });
}

Result<AggregateResult> ReferenceAggregate(const PlanarIndexSet& set,
                                           const ScalarProductQuery& q,
                                           const CountTolerance& tolerance) {
  const Deadline deadline = Deadline::Infinite();
  return ReferenceRoute<AggregateResult>(
      set, q, kAlwaysRefines,
      [&] {
        return ScanAggregateInequality(
            set.phi(), set.options().index_options.payload_column, q,
            deadline);
      },
      [&](const PlanarIndex& index, const NormalizedQuery& norm) {
        return index.AggregateInequality(norm, tolerance, deadline);
      });
}

// Top-k never diverts on interval width: non-finite queries fail, no
// usable index scans, anything else is served by the winner.
Result<TopKResult> ReferenceTopK(const PlanarIndexSet& set,
                                 const ScalarProductQuery& q, size_t k) {
  const Deadline deadline = Deadline::Infinite();
  const NormalizedQuery norm = NormalizedQuery::From(q);
  if (!norm.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  const int best = set.SelectBestIndex(norm);
  if (best < 0) return ScanTopK(set.phi(), q, k, deadline);
  Result<TopKResult> result =
      set.index(static_cast<size_t>(best)).TopK(norm, k, deadline);
  if (result.ok()) result->stats.index_used = best;
  return result;
}

void ExpectSameExplain(const PlanarIndexSet& set, const ScalarProductQuery& q,
                       const std::string& context) {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const int best = set.SelectBestIndex(norm);
  const PlanarIndexSet::Explanation got = set.Explain(q);
  const PlanarIndexSet::SelectivityBounds got_bounds =
      set.EstimateSelectivity(q);
  ASSERT_EQ(got.index_used, best) << context;
  if (best < 0) {
    EXPECT_FALSE(got.scan_fallback) << context;
    EXPECT_EQ(got_bounds.lo, 0.0) << context;
    EXPECT_EQ(got_bounds.hi, 1.0) << context;
    return;
  }
  const PlanarIndex::Explanation want =
      set.index(static_cast<size_t>(best)).Explain(norm);
  const PlanarIndex::Explanation& e = got.index_explanation;
  EXPECT_EQ(e.can_serve, want.can_serve) << context;
  EXPECT_EQ(e.degenerate, want.degenerate) << context;
  EXPECT_EQ(e.b_prime, want.b_prime) << context;
  EXPECT_EQ(e.rmin, want.rmin) << context;
  EXPECT_EQ(e.rmax, want.rmax) << context;
  EXPECT_EQ(e.excluded_axes, want.excluded_axes) << context;
  EXPECT_EQ(e.low_cut, want.low_cut) << context;
  EXPECT_EQ(e.high_cut, want.high_cut) << context;
  EXPECT_EQ(e.num_points, want.num_points) << context;
  EXPECT_EQ(e.smaller_end, want.smaller_end) << context;
  EXPECT_EQ(e.larger_begin, want.larger_begin) << context;
  EXPECT_EQ(e.cmp, want.cmp) << context;
  const double fraction = set.options().scan_fallback_fraction;
  const double n = static_cast<double>(set.size());
  EXPECT_EQ(got.scan_fallback,
            fraction < 1.0 &&
                static_cast<double>(want.intermediate()) > fraction * n)
      << context;
  if (want.degenerate) {
    EXPECT_EQ(got_bounds.lo, 0.0) << context;
    EXPECT_EQ(got_bounds.hi, 1.0) << context;
    return;
  }
  const bool le = norm.cmp == Comparison::kLessEqual;
  const double accepted = static_cast<double>(
      le ? want.smaller_end : want.num_points - want.larger_begin);
  EXPECT_EQ(got_bounds.lo, accepted / n) << context;
  EXPECT_EQ(got_bounds.hi,
            (accepted + static_cast<double>(want.intermediate())) / n)
      << context;
}

// Queries of every shape the planner special-cases, in dimension `dim`.
std::vector<ScalarProductQuery> MakeQueries(size_t dim, Comparison cmp,
                                            uint64_t seed) {
  Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto random_a = [&] {
    std::vector<double> a(dim);
    for (double& v : a) v = rng.Uniform(1.0, 8.0);
    return a;
  };
  // b spread over the range of <a, phi> (phi in [-20, 100]).
  auto random_b = [&](const std::vector<double>& a) {
    double sum = 0.0;
    for (double v : a) sum += v;
    return rng.Uniform(-0.1, 0.7) * 100.0 * sum;
  };
  std::vector<ScalarProductQuery> out;
  auto add = [&](std::vector<double> a, double b) {
    out.push_back({std::move(a), b, cmp});
  };
  for (int i = 0; i < 12; ++i) {  // random, including negative b
    std::vector<double> a = random_a();
    const double b = random_b(a);
    add(std::move(a), b);
  }
  for (int i = 0; i < 3; ++i) {  // zero axes
    std::vector<double> a = random_a();
    for (size_t j = 0; j < dim; j += 2) a[j] = 0.0;
    if (dim == 2) a[1] = rng.Uniform(1.0, 8.0);
    const double b = random_b(a);
    add(std::move(a), b);
  }
  for (int i = 0; i < 3; ++i) {  // denormal-ratio axes
    std::vector<double> a = random_a();
    a[0] = 1e-310;
    const double b = random_b(a);
    add(std::move(a), b);
  }
  // Every axis excluded: the whole set is intermediate.
  add(std::vector<double>(dim, 5e-324), 1.0);
  add(std::vector<double>(dim, 0.0), 5.0);   // degenerate, all match (le)
  add(std::vector<double>(dim, 0.0), -5.0);  // degenerate, flipped
  add(std::vector<double>(dim, 0.0), 0.0);
  {  // foreign octant
    std::vector<double> a = random_a();
    a[0] = -a[0];
    add(std::move(a), 40.0);
  }
  {  // huge magnitudes
    std::vector<double> a = random_a();
    for (double& v : a) v *= 1e290;
    const double b = random_b(a);
    add(std::move(a), b);
  }
  {  // non-finite parameters
    std::vector<double> a = random_a();
    a[0] = nan;
    add(std::move(a), 10.0);
    add(random_a(), inf);
  }
  return out;
}

struct SetConfig {
  size_t dim;
  size_t rows;
  size_t budget;
};

class PlanParityTest
    : public ::testing::TestWithParam<std::tuple<Selector, double, SetConfig>> {
};

TEST_P(PlanParityTest, PlanServedAnswersMatchReferenceRoute) {
  const auto [selector, fraction, config] = GetParam();
  IndexSetOptions options;
  options.budget = config.budget;
  options.selector = selector;
  options.scan_fallback_fraction = fraction;
  options.index_options.payload_column = 1;
  auto set = PlanarIndexSet::Build(
      RandomPhi(config.rows, config.dim, -20.0, 100.0, 7 + config.dim),
      std::vector<ParameterDomain>(config.dim, {1.0, 8.0}), options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const std::vector<CountTolerance> tolerances = {
      {}, {25.0, 0.0}, {0.0, 0.05}};
  const std::vector<size_t> ks = {0, 1, 7, config.rows + 5};

  for (const Comparison cmp :
       {Comparison::kLessEqual, Comparison::kGreaterEqual}) {
    const std::vector<ScalarProductQuery> queries =
        MakeQueries(config.dim, cmp, 100 + config.dim);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const ScalarProductQuery& q = queries[qi];
      const std::string context = "dim " + std::to_string(config.dim) +
                                  " query " + std::to_string(qi) + " " +
                                  q.ToString();
      ExpectSame(set->Inequality(q, Deadline::Infinite()),
                 ReferenceInequality(*set, q), context + " inequality");
      for (const CountTolerance& tolerance : tolerances) {
        ExpectSame(set->CountInequality(q, tolerance),
                   ReferenceCount(*set, q, tolerance), context + " count");
        ExpectSame(set->AggregateInequality(q, tolerance),
                   ReferenceAggregate(*set, q, tolerance),
                   context + " aggregate");
      }
      for (const size_t k : ks) {
        ExpectSame(set->TopK(q, k), ReferenceTopK(*set, q, k),
                   context + " top-" + std::to_string(k));
      }
      ExpectSameExplain(*set, q, context + " explain");
    }
    const std::vector<Result<InequalityResult>> batched =
        set->BatchInequality(queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectSame(batched[qi], ReferenceInequality(*set, queries[qi]),
                 "batch query " + std::to_string(qi));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelectorsFallbacksDims, PlanParityTest,
    ::testing::Combine(::testing::Values(Selector::kStretch, Selector::kAngle,
                                         Selector::kIntervalCount),
                       ::testing::Values(0.85, 1.0),
                       ::testing::Values(SetConfig{2, 3000, 10},
                                         SetConfig{65, 300, 4})));

}  // namespace
}  // namespace planar
