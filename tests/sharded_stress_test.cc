// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Sharded-catalog churn stress: client threads hammer Engine::Submit —
// and direct ShardedIndexSet scatter-gather calls — while a churn thread
// keeps replacing the named sharded set (varying its shard count) and
// flipping an ephemeral entry between the monolithic and sharded
// flavors. Meant to run under ThreadSanitizer (tsan preset / CI job) to
// catch races between the scatter-gather read path (shard fan-out on the
// shared pool, per-shard rows-verified counters, shared_ptr snapshot
// lifetime) and Catalog::InstallSharded's swap. Functional assertions
// are deliberately loose under churn, but every admitted request must be
// answered and accounted, and the per-shard stats invariant must hold on
// every successful direct query.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded.h"
#include "engine/engine.h"
#include "tests/test_util.h"

namespace planar {
namespace {

ShardedIndexSet MakeShardedSet(uint64_t seed, size_t n, size_t shards) {
  PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, seed);
  ShardedIndexSetOptions options;
  options.shards = shards;
  options.min_rows_per_shard = 1;
  auto set = ShardedIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}}, options);
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

PlanarIndexSet MakeMonolithicSet(uint64_t seed, size_t n) {
  PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, seed);
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}});
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

ScalarProductQuery MakeStressQuery(Rng& rng, int i) {
  ScalarProductQuery query;
  query.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
  query.b = rng.Uniform(-100, 300);
  query.cmp = i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
  return query;
}

TEST(ShardedStressTest, QueryingSurvivesShardedInstallChurn) {
  constexpr size_t kClients = 4;
  constexpr int kRequestsPerClient = 150;
  constexpr int kChurnRounds = 40;

  Catalog catalog;
  catalog.InstallSharded("live", MakeShardedSet(1, 400, 3));

  EngineOptions options;
  options.num_workers = 3;
  options.queue_capacity = 256;
  Engine engine(&catalog, options);

  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    for (int round = 0; round < kChurnRounds &&
                        !stop_churn.load(std::memory_order_relaxed);
         ++round) {
      // Replace "live" sharded-for-sharded: the swap is atomic within
      // the sharded map, so readers see the old or the new set, never a
      // gap — "live" requests can never fail with kNotFound. The shard
      // count varies so merges race against different fan-out widths.
      catalog.InstallSharded(
          "live",
          MakeShardedSet(static_cast<uint64_t>(round) + 2,
                         200 + 10 * static_cast<size_t>(round % 7),
                         1 + static_cast<size_t>(round % 5)));
      // Flip an ephemeral entry between flavors and drop it. Flavor
      // flips and drops have a visibility gap by design (the engine
      // probes the monolithic map before the sharded one), so clients
      // tolerate kNotFound on this name.
      if (round % 3 == 0) {
        catalog.InstallSharded(
            "ephemeral",
            MakeShardedSet(static_cast<uint64_t>(round) + 50, 120, 2));
      } else if (round % 3 == 1) {
        catalog.Install("ephemeral",
                        MakeMonolithicSet(static_cast<uint64_t>(round), 120));
      } else {
        catalog.Drop("ephemeral");
      }
    }
  });

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> ok_answers{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + c);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const bool ephemeral = i % 10 == 3;
        EngineRequest request;
        request.target = ephemeral ? "ephemeral" : "live";
        request.kind = i % 3 == 0 ? QueryKind::kTopK : QueryKind::kInequality;
        request.k = 4;
        request.query = MakeStressQuery(rng, i);
        if (i % 20 == 7) request.deadline = Deadline::After(0.0);
        auto future = engine.Submit(std::move(request));
        if (!future.ok()) {
          // Queue full: legitimate shedding under pressure.
          EXPECT_EQ(future.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        const EngineResponse response = future->get();
        answered.fetch_add(1, std::memory_order_relaxed);
        if (response.status.ok()) {
          ok_answers.fetch_add(1, std::memory_order_relaxed);
        } else if (ephemeral &&
                   response.status.code() == StatusCode::kNotFound) {
          // The ephemeral entry comes, goes, and changes flavor by
          // design.
        } else {
          // "live" stays sharded throughout: the only legitimate
          // failure is the deadline we injected ourselves.
          EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
              << response.status.ToString();
        }
      }
    });
  }

  for (std::thread& client : clients) client.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();
  engine.Drain();

  const DebugSnapshot snapshot = engine.Snapshot();
  const EngineCounters& counters = snapshot.counters;
  EXPECT_EQ(counters.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(counters.admitted, answered.load());
  EXPECT_EQ(counters.admitted, counters.completed_ok +
                                   counters.deadline_exceeded +
                                   counters.failed);
  EXPECT_EQ(counters.completed_ok, ok_answers.load());
  EXPECT_GT(ok_answers.load(), 0u) << snapshot.ToString();
  // Every "live" answer fanned across shards, so the sharded counters
  // must have moved and the fan-out histogram holds one sample per
  // sharded execution (batched groups count once).
  EXPECT_GT(counters.sharded_queries, 0u) << snapshot.ToString();
  EXPECT_EQ(snapshot.shard_fanout.count(), counters.sharded_queries)
      << snapshot.ToString();
  EXPECT_GT(catalog.version(), 0u);
}

TEST(ShardedStressTest, DirectSnapshotQueriesRaceInstall) {
  constexpr size_t kReaders = 4;
  constexpr int kQueriesPerReader = 120;
  constexpr int kChurnRounds = 30;

  Catalog catalog;
  catalog.InstallSharded("live", MakeShardedSet(11, 500, 4));

  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    for (int round = 0; round < kChurnRounds &&
                        !stop_churn.load(std::memory_order_relaxed);
         ++round) {
      catalog.InstallSharded(
          "live",
          MakeShardedSet(static_cast<uint64_t>(round) + 30,
                         300 + 20 * static_cast<size_t>(round % 5),
                         1 + static_cast<size_t>(round % 4)));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(300 + r);
      for (int i = 0; i < kQueriesPerReader; ++i) {
        // Pin a snapshot: the set must stay fully valid for the whole
        // scatter-gather even if the churn thread replaces the catalog
        // entry mid-query (shared_ptr keeps the displaced set alive).
        const Catalog::ShardedPtr set = catalog.FindSharded("live");
        ASSERT_NE(set, nullptr);
        const ScalarProductQuery query = MakeStressQuery(rng, i);
        if (i % 4 == 0) {
          auto result = set->TopK(query, 8);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          for (const Neighbor& neighbor : result.value().neighbors) {
            EXPECT_LT(neighbor.id, set->size());
          }
        } else {
          auto result = set->Inequality(query);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          const QueryStats& stats = result.value().stats;
          EXPECT_EQ(stats.accepted_directly + stats.rejected_directly +
                        stats.verified,
                    set->size());
          // Part order, checked against the same pinned snapshot.
          const std::vector<uint32_t>& ids = result.value().ids;
          EXPECT_EQ(ids, ShardOrderIds(*set, query));
          for (const uint32_t id : ids) EXPECT_LT(id, set->size());
        }
      }
    });
  }

  for (std::thread& reader : readers) reader.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();
}

}  // namespace
}  // namespace planar
