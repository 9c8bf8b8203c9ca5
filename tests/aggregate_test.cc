// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The SUM/AVG fast path contract (core/aggregate.h, core/planar_index.h
// AggregateInequality): canonical blocked summation is one fixed
// association, prefix aggregates answer range totals and envelopes
// exactly, tolerance-0 sums match the brute-force reference (integer
// payloads, so doubles compare exactly), looser tolerances return
// enclosing bounds, and misconfiguration fails with the documented
// statuses on every surface.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/random.h"
#include "core/aggregate.h"
#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/scan.h"
#include "core/sharded.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr int kPayloadColumn = 2;  // third feature doubles as the payload

IndexSetOptions SetOptions() {
  IndexSetOptions options;
  options.budget = 6;
  options.seed = 7;
  options.scan_fallback_fraction = 1.0;
  options.index_options.payload_column = kPayloadColumn;
  return options;
}

std::vector<ParameterDomain> Domains(size_t dim) {
  return std::vector<ParameterDomain>(dim, ParameterDomain{1.0, 8.0});
}

// Integer-valued features: payload sums are exact in double arithmetic,
// so cross-path comparisons can demand bit equality.
PhiMatrix IntegerPhi(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PhiMatrix phi(dim);
  phi.Reserve(n);
  std::vector<double> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<double>(1 + rng.NextUint64() % 100);
    }
    phi.AppendRow(row);
  }
  return phi;
}

PhiMatrix CopyPhi(const PhiMatrix& phi) {
  PhiMatrix copy(phi.dim());
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  return copy;
}

ScalarProductQuery MakeQuery(size_t dim, Rng* rng) {
  ScalarProductQuery q;
  q.a.resize(dim);
  for (double& v : q.a) v = rng->Uniform(1.0, 8.0);
  q.b = rng->Uniform(0.2, 1.2) * 50.0 * static_cast<double>(dim) *
        rng->Uniform(1.0, 8.0);
  q.cmp = rng->NextDouble() < 0.5 ? Comparison::kLessEqual
                                  : Comparison::kGreaterEqual;
  return q;
}

double BruteForceSum(const PhiMatrix& phi, const ScalarProductQuery& q) {
  double total = 0.0;
  for (size_t i = 0; i < phi.size(); ++i) {
    if (q.Matches(phi.row(i))) total += phi.row(i)[kPayloadColumn];
  }
  return total;
}

TEST(CanonicalBlockedSumTest, MatchesReferenceAssociation) {
  Rng rng(3);
  for (size_t n : {0u, 1u, 255u, 256u, 257u, 1000u, 4096u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    // The documented association: per-block sequential sums, then a
    // sequential sum of the block totals.
    double expected = 0.0;
    for (size_t b = 0; b < n; b += kAggregateBlockRows) {
      const size_t e = std::min(n, b + kAggregateBlockRows);
      double block = 0.0;
      for (size_t i = b; i < e; ++i) block += v[i];
      expected += block;
    }
    EXPECT_EQ(CanonicalBlockedSum(v.data(), n), expected) << "n=" << n;
  }
}

TEST(PrefixAggregatesTest, PrefixDifferencesAreRangeTotals) {
  // Payload values by rank order: 3, -1, 4, -1, 5 (ids permute a column).
  const std::vector<double> payload = {4.0, -1.0, 3.0, 5.0, -1.0};
  const std::vector<uint32_t> ids = {2, 4, 0, 1, 3};  // ranks -> row ids
  PrefixAggregates pre;
  BuildPrefixAggregates(payload.data(), 1, ids.data(), ids.size(), &pre);
  ASSERT_EQ(pre.sum.size(), 6u);
  EXPECT_EQ(pre.sum[0], 0.0);
  EXPECT_EQ(pre.sum[5], 10.0);
  EXPECT_EQ(pre.sum[3] - pre.sum[1], 3.0);   // ranks [1, 3): -1 + 4
  EXPECT_EQ(pre.pos[5], 12.0);               // 3 + 4 + 5
  EXPECT_EQ(pre.neg[5], -2.0);               // -1 + -1
  // Envelope: any subset of ranks [0, 5) sums within [neg, pos].
  EXPECT_LE(pre.neg[5] - pre.neg[0], pre.sum[5] - pre.sum[0]);
  EXPECT_GE(pre.pos[5] - pre.pos[0], pre.sum[5] - pre.sum[0]);
}

TEST(AggregateInequalityTest, ExactSumMatchesBruteForce) {
  Rng rng(909);
  PhiMatrix phi = IntegerPhi(2500, 3, 808);
  PlanarIndexOptions options;
  options.payload_column = kPayloadColumn;
  auto index =
      PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0}, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index->has_payload());
  for (int trial = 0; trial < 40; ++trial) {
    const ScalarProductQuery q = MakeQuery(3, &rng);
    auto agg = index->AggregateInequality(q);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    const double truth = BruteForceSum(phi, q);
    EXPECT_TRUE(agg->exact);
    EXPECT_EQ(agg->sum, truth);
    EXPECT_EQ(agg->sum_lower, truth);
    EXPECT_EQ(agg->sum_upper, truth);
    // The piggybacked count is the exact match count.
    EXPECT_TRUE(agg->count.exact);
    EXPECT_EQ(agg->count.estimate, ScanInequality(phi, q).ids.size());
    if (agg->count.estimate > 0) {
      EXPECT_EQ(agg->Average(),
                truth / static_cast<double>(agg->count.estimate));
    }
  }
}

TEST(AggregateInequalityTest, SetLevelMatchesScanFallbackReference) {
  Rng rng(111);
  PhiMatrix phi = IntegerPhi(2000, 3, 606);
  auto set = PlanarIndexSet::Build(CopyPhi(phi), Domains(3), SetOptions());
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  for (int trial = 0; trial < 30; ++trial) {
    const ScalarProductQuery q = MakeQuery(3, &rng);
    auto agg = set->AggregateInequality(q);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    EXPECT_TRUE(agg->exact);
    EXPECT_EQ(agg->sum, BruteForceSum(phi, q));
    auto scan = ScanAggregateInequality(phi, kPayloadColumn, q,
                                        Deadline::Infinite());
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->sum, agg->sum);
    EXPECT_EQ(scan->count.estimate, agg->count.estimate);
  }
}

TEST(AggregateInequalityTest, BoundsContainTruthAtLooseTolerance) {
  Rng rng(222);
  PhiMatrix phi = IntegerPhi(3000, 3, 404);
  PlanarIndexOptions options;
  options.payload_column = kPayloadColumn;
  auto index =
      PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 2.0}, options);
  ASSERT_TRUE(index.ok());
  for (int trial = 0; trial < 25; ++trial) {
    const ScalarProductQuery q = MakeQuery(3, &rng);
    const double truth = BruteForceSum(phi, q);
    for (double absolute : {1.0, 100.0, 1e7}) {
      CountTolerance tolerance;
      tolerance.absolute = absolute;
      auto agg = index->AggregateInequality(q, tolerance);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      EXPECT_LE(agg->sum_lower, truth);
      EXPECT_GE(agg->sum_upper, truth);
      EXPECT_GE(agg->sum, agg->sum_lower);
      EXPECT_LE(agg->sum, agg->sum_upper);
    }
  }
}

TEST(AggregateInequalityTest, FailsWithoutPayloadColumn) {
  PhiMatrix phi = RandomPhi(500, 2, 1.0, 100.0, 5);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->has_payload());
  const ScalarProductQuery q{{1.0, 1.0}, 100.0, Comparison::kLessEqual};
  auto agg = index->AggregateInequality(q);
  EXPECT_EQ(agg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AggregateInequalityTest, BuildRejectsOutOfRangePayloadColumn) {
  PhiMatrix phi = RandomPhi(500, 2, 1.0, 100.0, 5);
  PlanarIndexOptions options;
  options.payload_column = 2;  // dim is 2: columns are 0 and 1
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0}, options);
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST(AggregateInequalityTest, ExpiredDeadlineCanonicalMessage) {
  PhiMatrix phi = IntegerPhi(3000, 2, 77);
  PlanarIndexOptions options;
  options.payload_column = 0;
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0}, options);
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 5.0}, 300.0, Comparison::kLessEqual};
  const NormalizedQuery nq = NormalizedQuery::From(q);
  auto agg =
      index->AggregateInequality(nq, CountTolerance(), Deadline::After(0));
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(agg.status().message(),
            "aggregate query exceeded its deadline during II refinement");
}

// Sharded fan-out: tolerance-0 sums are bit-identical to the monolithic
// set (integer payloads, exact double arithmetic all the way through).
TEST(AggregateInequalityTest, ShardedMatchesMonolithic) {
  PhiMatrix phi = IntegerPhi(3000, 3, 202);
  auto mono = PlanarIndexSet::Build(CopyPhi(phi), Domains(3), SetOptions());
  ASSERT_TRUE(mono.ok());
  Rng rng(66);
  std::vector<ScalarProductQuery> queries;
  for (int trial = 0; trial < 12; ++trial) queries.push_back(MakeQuery(3, &rng));
  for (size_t shards = 1; shards <= 8; ++shards) {
    ShardedIndexSetOptions options;
    options.shards = shards;
    options.min_rows_per_shard = 1;
    options.set_options = SetOptions();
    auto sharded = ShardedIndexSet::Build(CopyPhi(phi), Domains(3), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (const ScalarProductQuery& q : queries) {
      auto mono_agg = mono->AggregateInequality(q);
      auto shard_agg = sharded->AggregateInequality(q);
      ASSERT_TRUE(mono_agg.ok() && shard_agg.ok());
      EXPECT_TRUE(shard_agg->exact);
      EXPECT_EQ(shard_agg->sum, mono_agg->sum);
      EXPECT_EQ(shard_agg->count.estimate, mono_agg->count.estimate);

      CountTolerance loose;
      loose.absolute = 1e6;
      auto approx = sharded->AggregateInequality(q, loose);
      ASSERT_TRUE(approx.ok());
      EXPECT_LE(approx->sum_lower, mono_agg->sum);
      EXPECT_GE(approx->sum_upper, mono_agg->sum);
    }
  }
}

TEST(AggregateInequalityTest, ShardedExpiredDeadlineCanonicalMessage) {
  PhiMatrix phi = IntegerPhi(3000, 3, 99);
  ShardedIndexSetOptions options;
  options.shards = 4;
  options.min_rows_per_shard = 1;
  options.set_options = SetOptions();
  auto sharded = ShardedIndexSet::Build(CopyPhi(phi), Domains(3), options);
  ASSERT_TRUE(sharded.ok());
  const ScalarProductQuery q{{1.0, 5.0, 1.0}, 400.0, Comparison::kLessEqual};
  auto agg =
      sharded->AggregateInequality(q, CountTolerance(), Deadline::After(0));
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(agg.status().message(),
            "sharded aggregate query exceeded its deadline");
}

}  // namespace
}  // namespace planar
