// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The COUNT fast path contract (core/planar_index.h CountInequality):
// tolerance-0 counts are bit-equal to the materializing Inequality path
// and the scan baseline on every serving surface (index, set, sharded),
// looser tolerances return certified [lower, upper] bounds that always
// contain the truth and meet the requested gap, the learned-CDF sidecar
// never changes an answer, and the deadline / serialization behavior
// matches the rest of the tree (canonical messages; blobs byte-identical
// with the sidecar on or off).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/random.h"
#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/scan.h"
#include "core/serialize.h"
#include "core/sharded.h"
#include "tests/test_util.h"

namespace planar {
namespace {

IndexSetOptions SetOptions() {
  IndexSetOptions options;
  options.budget = 6;
  options.seed = 7;
  options.scan_fallback_fraction = 1.0;
  return options;
}

std::vector<ParameterDomain> Domains(size_t dim) {
  return std::vector<ParameterDomain>(dim, ParameterDomain{1.0, 8.0});
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

PhiMatrix CopyPhi(const PhiMatrix& phi) {
  PhiMatrix copy(phi.dim());
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  return copy;
}

// Tolerance-0 counts equal the scan baseline across dimensionalities and
// comparison directions — the bit-exactness gate (CONTRIBUTING).
TEST(CountInequalityTest, ExactCountMatchesScanAcrossDims) {
  Rng rng(101);
  for (size_t dim : {1u, 2u, 3u, 4u}) {
    PhiMatrix phi = RandomPhi(2000, dim, 1.0, 100.0, 1000 + dim);
    auto set = PlanarIndexSet::Build(CopyPhi(phi), Domains(dim), SetOptions());
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    for (int trial = 0; trial < 40; ++trial) {
      const ScalarProductQuery q = MakeQuery(dim, &rng);
      auto count = set->CountInequality(q);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      const size_t truth = ScanInequality(phi, q).ids.size();
      EXPECT_TRUE(count->exact);
      EXPECT_EQ(count->lower, truth);
      EXPECT_EQ(count->upper, truth);
      EXPECT_EQ(count->estimate, truth);
    }
  }
}

// Duplicate keys and a threshold b sitting exactly on key values: the
// boundary searches must place ties on the correct side, matching scan.
TEST(CountInequalityTest, ExactOnDuplicateKeysAndBoundaryThresholds) {
  Rng rng(303);
  PhiMatrix phi(2);
  phi.Reserve(1200);
  for (size_t i = 0; i < 1200; ++i) {
    // Small integer grid: heavy key duplication under normal (1, 2).
    phi.AppendRow({static_cast<double>(rng.NextUint64() % 8),
                   static_cast<double>(rng.NextUint64() % 8)});
  }
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // b >= 0 only: normalization negates a negative-b query into the
  // opposite octant, which a first-octant index correctly refuses.
  for (int b = 0; b <= 25; ++b) {
    for (Comparison cmp : {Comparison::kLessEqual, Comparison::kGreaterEqual}) {
      const ScalarProductQuery q{{1.0, 2.0}, static_cast<double>(b), cmp};
      auto count = index->CountInequality(q);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      const size_t truth = ScanInequality(phi, q).ids.size();
      EXPECT_TRUE(count->exact);
      EXPECT_EQ(count->estimate, truth) << "b=" << b;
    }
  }
}

// Loose tolerances: the truth is always inside [lower, upper], the final
// gap honors the requested tolerance, and the estimate stays in bounds.
TEST(CountInequalityTest, BoundsContainTruthAtEveryTolerance) {
  Rng rng(505);
  PhiMatrix phi = RandomPhi(3000, 3, 1.0, 100.0, 77);
  auto set = PlanarIndexSet::Build(CopyPhi(phi), Domains(3), SetOptions());
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  for (int trial = 0; trial < 25; ++trial) {
    const ScalarProductQuery q = MakeQuery(3, &rng);
    const size_t truth = ScanInequality(phi, q).ids.size();
    for (double absolute : {0.0, 1.0, 16.0, 300.0, 1e9}) {
      CountTolerance tolerance;
      tolerance.absolute = absolute;
      auto count = set->CountInequality(q, tolerance);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_LE(count->lower, truth);
      EXPECT_GE(count->upper, truth);
      EXPECT_LE(static_cast<double>(count->gap()),
                tolerance.Allowed(static_cast<double>(phi.size())));
      EXPECT_GE(count->estimate, count->lower);
      EXPECT_LE(count->estimate, count->upper);
    }
    CountTolerance relative;
    relative.relative = 0.05;
    auto count = set->CountInequality(q, relative);
    ASSERT_TRUE(count.ok());
    EXPECT_LE(count->lower, truth);
    EXPECT_GE(count->upper, truth);
    EXPECT_LE(static_cast<double>(count->gap()),
              relative.Allowed(static_cast<double>(phi.size())));
  }
}

// The learned sidecar carries no authority: tolerance-0 counts and
// inequality ids equal the scan's, both on an index large enough to fit
// a model and on one below LearnedCdf's min_keys (4096), whose sidecar
// is empty and whose boundary searches are all flat.
TEST(CountInequalityTest, LearnedCdfNeverChangesAnswers) {
  for (const size_t n : {size_t{8192}, size_t{2000}}) {
    PhiMatrix phi = RandomPhi(n, 2, 1.0, 100.0, 99);
    auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->learned_cdf().empty(), n < 4096) << n;
    Rng rng(11);
    for (int trial = 0; trial < 60; ++trial) {
      const ScalarProductQuery q = MakeQuery(2, &rng);
      const std::vector<uint32_t> truth = Sorted(ScanInequality(phi, q).ids);
      auto count = index->CountInequality(q);
      ASSERT_TRUE(count.ok());
      EXPECT_TRUE(count->exact);
      EXPECT_EQ(count->estimate, truth.size()) << n << " " << trial;
      auto ids = index->Inequality(q);
      ASSERT_TRUE(ids.ok());
      EXPECT_EQ(Sorted(ids->ids), truth) << n << " " << trial;
    }
  }
}

// An already-expired deadline fails refinement with the canonical
// message (engine clients match on it).
TEST(CountInequalityTest, ExpiredDeadlineCanonicalMessage) {
  PhiMatrix phi = RandomPhi(3000, 2, 1.0, 100.0, 55);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  // A skewed query leaves a non-empty II, so tolerance 0 must refine.
  const ScalarProductQuery q{{1.0, 5.0}, 300.0, Comparison::kLessEqual};
  const NormalizedQuery nq = NormalizedQuery::From(q);
  auto count = index->CountInequality(nq, CountTolerance(), Deadline::After(0));
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(count.status().message(),
            "count query exceeded its deadline during II refinement");
}

// Sharded fan-out: tolerance-0 counts are bit-identical to the
// monolithic set for every shard count, and looser tolerances still
// enclose the truth after the per-shard split.
TEST(CountInequalityTest, ShardedMatchesMonolithic) {
  PhiMatrix phi = RandomPhi(3000, 4, 1.0, 100.0, 31);
  auto mono = PlanarIndexSet::Build(CopyPhi(phi), Domains(4), SetOptions());
  ASSERT_TRUE(mono.ok());
  Rng rng(21);
  std::vector<ScalarProductQuery> queries;
  for (int trial = 0; trial < 15; ++trial) queries.push_back(MakeQuery(4, &rng));
  for (size_t shards = 1; shards <= 8; ++shards) {
    ShardedIndexSetOptions options;
    options.shards = shards;
    options.min_rows_per_shard = 1;
    options.set_options = SetOptions();
    auto sharded = ShardedIndexSet::Build(CopyPhi(phi), Domains(4), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (const ScalarProductQuery& q : queries) {
      auto mono_count = mono->CountInequality(q);
      auto shard_count = sharded->CountInequality(q);
      ASSERT_TRUE(mono_count.ok() && shard_count.ok());
      EXPECT_TRUE(shard_count->exact);
      EXPECT_EQ(shard_count->lower, mono_count->estimate);
      EXPECT_EQ(shard_count->upper, mono_count->estimate);
      EXPECT_EQ(shard_count->estimate, mono_count->estimate);

      CountTolerance loose;
      loose.absolute = 200.0;
      auto approx = sharded->CountInequality(q, loose);
      ASSERT_TRUE(approx.ok());
      EXPECT_LE(approx->lower, mono_count->estimate);
      EXPECT_GE(approx->upper, mono_count->estimate);
      // The split contract: the merged gap meets the whole tolerance.
      EXPECT_LE(static_cast<double>(approx->gap()), loose.absolute);
    }
  }
}

TEST(CountInequalityTest, ShardedExpiredDeadlineCanonicalMessage) {
  PhiMatrix phi = RandomPhi(3000, 2, 1.0, 100.0, 31);
  ShardedIndexSetOptions options;
  options.shards = 4;
  options.min_rows_per_shard = 1;
  options.set_options = SetOptions();
  auto sharded = ShardedIndexSet::Build(CopyPhi(phi), Domains(2), options);
  ASSERT_TRUE(sharded.ok());
  const ScalarProductQuery q{{1.0, 5.0}, 300.0, Comparison::kLessEqual};
  auto count =
      sharded->CountInequality(q, CountTolerance(), Deadline::After(0));
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(count.status().message(),
            "sharded count query exceeded its deadline");
}

TEST(CountInequalityTest, RejectsNonFiniteAndIncompatibleQueries) {
  PhiMatrix phi = RandomPhi(500, 2, 1.0, 100.0, 5);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  ScalarProductQuery nan_q{{1.0, std::nan("")}, 10.0, Comparison::kLessEqual};
  EXPECT_EQ(index->CountInequality(nan_q).status().code(),
            StatusCode::kInvalidArgument);
  ScalarProductQuery wrong_octant{{1.0, -1.0}, 10.0, Comparison::kLessEqual};
  EXPECT_EQ(index->CountInequality(wrong_octant).status().code(),
            StatusCode::kFailedPrecondition);
}

// The learned sidecar is never serialized: a reloaded set rebuilds it
// at load and still counts exactly.
TEST(CountInequalityTest, ReloadedSetCountsExactly) {
  PhiMatrix phi = RandomPhi(8192, 2, 1.0, 100.0, 13);
  auto set = PlanarIndexSet::Build(CopyPhi(phi), Domains(2), SetOptions());
  ASSERT_TRUE(set.ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/count_reload.planar";
  ASSERT_TRUE(SaveIndexSet(*set, path).ok());

  auto loaded = LoadIndexSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const ScalarProductQuery q = MakeQuery(2, &rng);
    auto count = loaded->CountInequality(q);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->estimate, ScanInequality(phi, q).ids.size());
  }
  std::remove(path.c_str());
}

// The scan-fallback baseline used by the set when no index can serve.
TEST(ScanCountInequalityTest, MatchesScanInequality) {
  Rng rng(41);
  PhiMatrix phi = RandomPhi(1500, 3, -50.0, 100.0, 23);
  for (int trial = 0; trial < 30; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0),
           rng.Uniform(-4.0, 4.0)};
    q.b = rng.Uniform(-200.0, 200.0);
    q.cmp = rng.NextDouble() < 0.5 ? Comparison::kLessEqual
                                   : Comparison::kGreaterEqual;
    auto count = ScanCountInequality(phi, q, Deadline::Infinite());
    ASSERT_TRUE(count.ok());
    EXPECT_TRUE(count->exact);
    EXPECT_EQ(count->estimate, ScanInequality(phi, q).ids.size());
  }
}

}  // namespace
}  // namespace planar
