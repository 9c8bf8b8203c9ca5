// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// ShardedIndexSet result contract (core/sharded.h): inequality ids are
// the monolithic match set in part order (each shard's own answer,
// rebased, concatenated in shard order), TopK is
// bit-identical to the monolithic set, merged stats keep the
// classification invariant, and — for a fixed shard count — results are
// bit-identical across worker counts. Every fan-out path in the tree
// ships a test like this against its serial reference (CONTRIBUTING).

#include "core/sharded.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/random.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr size_t kDim = 4;
constexpr size_t kRows = 3000;
constexpr uint64_t kSeed = 31;

IndexSetOptions SetOptions() {
  IndexSetOptions options;
  options.budget = 6;
  options.seed = 7;
  options.scan_fallback_fraction = 1.0;
  return options;
}

std::vector<ParameterDomain> Domains() {
  return std::vector<ParameterDomain>(kDim, ParameterDomain{1.0, 8.0});
}

ScalarProductQuery MakeQuery(Rng* rng) {
  ScalarProductQuery q;
  q.a.resize(kDim);
  for (double& v : q.a) v = rng->Uniform(1.0, 8.0);
  q.b = rng->Uniform(200.0, 1800.0);
  q.cmp = rng->NextDouble() < 0.5 ? Comparison::kLessEqual
                                  : Comparison::kGreaterEqual;
  return q;
}

ShardedIndexSet BuildSharded(
    const PhiMatrix& phi, size_t shards, size_t query_threads = 0,
    const IndexSetOptions& set_options = SetOptions()) {
  ShardedIndexSetOptions options;
  options.shards = shards;
  options.min_rows_per_shard = 1;
  options.query_threads = query_threads;
  options.set_options = set_options;
  PhiMatrix copy(phi.dim());
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto built = ShardedIndexSet::Build(std::move(copy), Domains(), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

class ShardedIndexSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    phi_ = RandomPhi(kRows, kDim, 1.0, 100.0, kSeed);
    PhiMatrix copy(phi_.dim());
    copy.Reserve(phi_.size());
    for (size_t i = 0; i < phi_.size(); ++i) copy.AppendRow(phi_.row(i));
    auto mono = PlanarIndexSet::Build(std::move(copy), Domains(), SetOptions());
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    mono_ = std::make_unique<PlanarIndexSet>(std::move(mono).value());
  }

  PhiMatrix phi_{kDim};
  std::unique_ptr<PlanarIndexSet> mono_;
};

void ExpectStatsInvariant(const QueryStats& stats, size_t rows) {
  EXPECT_EQ(stats.num_points, rows);
  EXPECT_EQ(stats.accepted_directly + stats.rejected_directly + stats.verified,
            stats.num_points);
}

TEST_F(ShardedIndexSetTest, InequalityMatchesMonolithicAcrossShardCounts) {
  Rng rng(99);
  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 25; ++i) queries.push_back(MakeQuery(&rng));

  for (const size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    const ShardedIndexSet sharded = BuildSharded(phi_, shards);
    ASSERT_EQ(sharded.num_shards(), shards);
    ASSERT_EQ(sharded.size(), kRows);
    uint64_t reported = 0;
    for (const ScalarProductQuery& q : queries) {
      const InequalityResult mono = mono_->Inequality(q);
      const auto result = sharded.Inequality(q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // The brute-force match set, in part order.
      EXPECT_EQ(Sorted(result.value().ids), BruteForceMatches(phi_, q))
          << "shards=" << shards;
      EXPECT_EQ(result.value().ids, ShardOrderIds(sharded, q))
          << "shards=" << shards;
      EXPECT_EQ(result.value().stats.result_size, mono.stats.result_size);
      ExpectStatsInvariant(result.value().stats, kRows);
      reported += result.value().stats.verified;
    }
    // The per-shard rows-verified counters account exactly the verified
    // sums the merged stats reported.
    uint64_t counted = 0;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      counted += sharded.shard_rows_verified(s);
    }
    EXPECT_EQ(counted, reported);
  }
}

TEST_F(ShardedIndexSetTest, TopKBitwiseEqualToMonolithic) {
  Rng rng(123);
  for (const size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    const ShardedIndexSet sharded = BuildSharded(phi_, shards);
    for (int i = 0; i < 12; ++i) {
      const ScalarProductQuery q = MakeQuery(&rng);
      // The last k exceeds the row count: every match comes back, as on
      // the monolithic set, and the merge reserves only what it holds.
      for (const size_t k :
           {size_t{1}, size_t{5}, size_t{17}, size_t{1} << 62}) {
        const auto mono = mono_->TopK(q, k);
        const auto result = sharded.TopK(q, k);
        ASSERT_EQ(mono.ok(), result.ok());
        if (!mono.ok()) continue;
        const std::vector<Neighbor>& want = mono.value().neighbors;
        const std::vector<Neighbor>& got = result.value().neighbors;
        ASSERT_EQ(got.size(), want.size()) << "shards=" << shards;
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(got[j].id, want[j].id);
          // Bitwise, not approximate: distances come from the same
          // kernel over the same raw phi row in every shard layout.
          EXPECT_EQ(std::memcmp(&got[j].distance, &want[j].distance,
                                sizeof(double)),
                    0);
        }
        EXPECT_EQ(result.value().stats.num_points, kRows);
      }
    }
  }
}

TEST(ShardedIndexSetDuplicatesTest, DuplicateRowsMergeExactly) {
  // 60 distinct rows, each repeated 50 times: duplicate keys cross shard
  // boundaries and produce distance ties TopK must break by global id.
  const PhiMatrix distinct = RandomPhi(60, kDim, 1.0, 100.0, 5);
  PhiMatrix phi(kDim);
  phi.Reserve(60 * 50);
  for (size_t rep = 0; rep < 50; ++rep) {
    for (size_t i = 0; i < distinct.size(); ++i) phi.AppendRow(distinct.row(i));
  }
  PhiMatrix copy(kDim);
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto mono = PlanarIndexSet::Build(std::move(copy), Domains(), SetOptions());
  ASSERT_TRUE(mono.ok());

  Rng rng(77);
  for (const size_t shards : {2u, 7u, 16u}) {
    const ShardedIndexSet sharded = BuildSharded(phi, shards);
    for (int i = 0; i < 10; ++i) {
      const ScalarProductQuery q = MakeQuery(&rng);
      const auto ineq = sharded.Inequality(q);
      ASSERT_TRUE(ineq.ok());
      EXPECT_EQ(Sorted(ineq.value().ids), BruteForceMatches(phi, q));
      EXPECT_EQ(ineq.value().ids, ShardOrderIds(sharded, q));
      const auto mono_topk = mono.value().TopK(q, 64);
      const auto topk = sharded.TopK(q, 64);
      ASSERT_EQ(mono_topk.ok(), topk.ok());
      if (!mono_topk.ok()) continue;
      ASSERT_EQ(topk.value().neighbors.size(),
                mono_topk.value().neighbors.size());
      for (size_t j = 0; j < topk.value().neighbors.size(); ++j) {
        EXPECT_EQ(topk.value().neighbors[j].id,
                  mono_topk.value().neighbors[j].id);
        EXPECT_EQ(topk.value().neighbors[j].distance,
                  mono_topk.value().neighbors[j].distance);
      }
    }
  }
}

TEST_F(ShardedIndexSetTest, BitIdenticalAcrossWorkerCounts) {
  Rng rng(17);
  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 10; ++i) queries.push_back(MakeQuery(&rng));

  const ShardedIndexSet serial = BuildSharded(phi_, 7, /*query_threads=*/1);
  for (const size_t workers : {2u, 5u, 8u}) {
    const ShardedIndexSet parallel = BuildSharded(phi_, 7, workers);
    for (const ScalarProductQuery& q : queries) {
      const auto want = serial.Inequality(q);
      const auto got = parallel.Inequality(q);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(got.value().ids, want.value().ids);
      EXPECT_EQ(got.value().stats.verified, want.value().stats.verified);
      EXPECT_EQ(got.value().stats.accepted_directly,
                want.value().stats.accepted_directly);
      EXPECT_EQ(got.value().stats.index_used, want.value().stats.index_used);
      const auto want_topk = serial.TopK(q, 9);
      const auto got_topk = parallel.TopK(q, 9);
      ASSERT_EQ(want_topk.ok(), got_topk.ok());
      if (!want_topk.ok()) continue;
      ASSERT_EQ(got_topk.value().neighbors.size(),
                want_topk.value().neighbors.size());
      for (size_t j = 0; j < got_topk.value().neighbors.size(); ++j) {
        EXPECT_EQ(got_topk.value().neighbors[j].id,
                  want_topk.value().neighbors[j].id);
        EXPECT_EQ(got_topk.value().neighbors[j].distance,
                  want_topk.value().neighbors[j].distance);
      }
    }
  }
}

TEST_F(ShardedIndexSetTest, AcceptAllAndAcceptNoneGatherExactly) {
  // <a, phi> lies in [4, 3200] for every row, so b = 1e6 accepts every
  // row and b = -1 accepts none, on every path.
  ScalarProductQuery all;
  all.a = {2.0, 3.0, 5.0, 7.0};
  all.b = 1e6;
  ScalarProductQuery none = all;
  none.b = -1.0;
  std::vector<uint32_t> every_row(kRows);
  for (uint32_t i = 0; i < kRows; ++i) every_row[i] = i;

  for (const size_t shards : {1u, 3u, 8u}) {
    const ShardedIndexSet sharded = BuildSharded(phi_, shards);
    ASSERT_EQ(sharded.num_shards(), shards);
    const auto accepted = sharded.Inequality(all);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_EQ(Sorted(accepted.value().ids), every_row) << "shards=" << shards;
    EXPECT_EQ(accepted.value().ids, ShardOrderIds(sharded, all))
        << "shards=" << shards;
    const auto rejected = sharded.Inequality(none);
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_TRUE(rejected.value().ids.empty()) << "shards=" << shards;
  }
}

TEST_F(ShardedIndexSetTest, DeadlineExpiryFansIn) {
  Rng rng(203);
  const ScalarProductQuery q = MakeQuery(&rng);
  // Aggregates need a payload column; any phi column serves.
  IndexSetOptions set_options = SetOptions();
  set_options.index_options.payload_column = 0;
  // An epoch: the monolithic set as its base part, and a delta holding
  // rows, so the expired base must stop the read before the delta scan.
  PhiMatrix base_rows(phi_);
  auto base = PlanarIndexSet::Build(std::move(base_rows), Domains(),
                                    set_options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const PhiMatrix tail = RandomPhi(50, kDim, 1.0, 100.0, kSeed + 1);
  auto delta = std::make_shared<DeltaBuffer>(kDim, 64);
  ASSERT_TRUE(delta->Append(tail.data(), tail.size()));
  std::vector<ShardedIndexSet> sets;
  sets.push_back(BuildSharded(phi_, 1, 0, set_options));
  sets.push_back(BuildSharded(phi_, 7, 0, set_options));
  sets.push_back(ShardedIndexSet::Epoch(
      std::make_shared<const PlanarIndexSet>(std::move(base).value()),
      delta));
  for (const ShardedIndexSet& sharded : sets) {
    // Every kind expires with its one canonical message, on the inline
    // 1-shard path, on the fan-out and on an epoch.
    const auto ineq = sharded.Inequality(q, Deadline::After(0.0));
    ASSERT_FALSE(ineq.ok());
    EXPECT_EQ(ineq.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(ineq.status().message(),
              "sharded inequality query exceeded its deadline");
    const auto topk = sharded.TopK(q, 5, Deadline::After(0.0));
    ASSERT_FALSE(topk.ok());
    EXPECT_EQ(topk.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(topk.status().message(),
              "sharded top-k query exceeded its deadline");
    const auto count =
        sharded.CountInequality(q, CountTolerance(), Deadline::After(0.0));
    ASSERT_FALSE(count.ok());
    EXPECT_EQ(count.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(count.status().message(),
              "sharded count query exceeded its deadline");
    const auto agg = sharded.AggregateInequality(q, CountTolerance(),
                                                 Deadline::After(0.0));
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(agg.status().message(),
              "sharded aggregate query exceeded its deadline");
    // A generous deadline behaves exactly like the infinite default.
    const auto ok = sharded.Inequality(q, Deadline::After(60000.0));
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().ids, sharded.Inequality(q).value().ids);
  }
}

TEST(ShardedIndexSetSizingTest, ShardCountClampsToMinRows) {
  const PhiMatrix phi = RandomPhi(500, kDim, 1.0, 100.0, 3);
  ShardedIndexSetOptions options;
  options.shards = 16;
  options.min_rows_per_shard = 250;
  options.set_options = SetOptions();
  PhiMatrix copy(kDim);
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  auto sharded = ShardedIndexSet::Build(std::move(copy), Domains(), options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().num_shards(), 2u);
  EXPECT_EQ(sharded.value().options().shards, 2u);
  EXPECT_EQ(sharded.value().shard_offset(0), 0u);
  EXPECT_EQ(sharded.value().shard_offset(1), 250u);
  EXPECT_EQ(sharded.value().shard_offset(2), 500u);
  EXPECT_GT(sharded.value().MemoryUsage(), 0u);
}

}  // namespace
}  // namespace planar
