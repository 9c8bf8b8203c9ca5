// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Concurrency stress for the ingest subsystem, designed to run under
// ThreadSanitizer: one writer appends batches from a precomputed row
// pool while reader threads query through the delta overlay and the
// background merger repeatedly drains the delta and installs merged
// sets. Readers check linearizability-style invariants built on two
// monotone counters the writer publishes with release stores:
//
//   started_   — advanced BEFORE a batch is handed to Append
//   completed_ — advanced AFTER Append returned OK
//
// For a query that loads completed_ (acquire) before running and
// started_ after running:
//   (a) every satisfying row with id < base + completed_before MUST be
//       reported (the acquire pairs with the writer's release, which in
//       turn ordered after the delta's release-published size), and
//   (b) every reported id MUST be < base + started_after (a row can
//       only be visible once its batch was started).
// Plus: no duplicate ids, and every reported id satisfies the
// predicate. After the writer finishes, a Flush quiesces the shard and
// the results are compared exactly against a serial from-scratch build.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ingest/ingest.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr char kTarget[] = "stream";
constexpr size_t kDim = 3;
constexpr size_t kBaseRows = 400;
constexpr size_t kPoolRows = 4096;

std::vector<ParameterDomain> Domains() {
  return {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
}

struct Fixture {
  PhiMatrix all{kDim};              // base rows followed by the pool
  std::vector<double> pool;         // rows the writer appends, in order
  std::vector<ScalarProductQuery> queries;
  // satisfies[q][id]: does global row id satisfy queries[q]?
  std::vector<std::vector<char>> satisfies;
};

Fixture MakeFixture() {
  Fixture f;
  Rng rng(4242);
  PhiMatrix base = RandomPhi(kBaseRows, kDim, -20.0, 80.0, 4242);
  for (size_t i = 0; i < base.size(); ++i) f.all.AppendRow(base.row(i));
  f.pool.resize(kPoolRows * kDim);
  for (double& v : f.pool) v = rng.Uniform(-20.0, 80.0);
  for (size_t i = 0; i < kPoolRows; ++i) {
    f.all.AppendRow(f.pool.data() + i * kDim);
  }
  for (int i = 0; i < 4; ++i) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    q.b = rng.Uniform(-100, 300);
    q.cmp = i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
    f.queries.push_back(q);
  }
  f.satisfies.resize(f.queries.size());
  for (size_t qi = 0; qi < f.queries.size(); ++qi) {
    const ScalarProductQuery& q = f.queries[qi];
    f.satisfies[qi].resize(f.all.size());
    for (size_t id = 0; id < f.all.size(); ++id) {
      double dot = 0.0;
      for (size_t d = 0; d < kDim; ++d) dot += q.a[d] * f.all.row(id)[d];
      f.satisfies[qi][id] = q.cmp == Comparison::kLessEqual ? dot <= q.b
                                                            : dot >= q.b;
    }
  }
  return f;
}

TEST(IngestStressTest, ConcurrentReadsStayConsistentAcrossMerges) {
  const Fixture f = MakeFixture();
  Catalog catalog;
  {
    PhiMatrix base(kDim);
    for (size_t i = 0; i < kBaseRows; ++i) base.AppendRow(f.all.row(i));
    IndexSetOptions options;
    options.budget = 4;
    auto set = PlanarIndexSet::Build(std::move(base), Domains(), options);
    ASSERT_TRUE(set.ok());
    catalog.Install(kTarget, std::move(set).value());
  }
  IngestOptions options;
  options.merge_threshold = 64;  // merge constantly while readers run
  options.delta_capacity = kPoolRows;  // large enough to never shed
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  std::atomic<size_t> started{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    Rng rng(7);
    size_t next = 0;
    while (next < kPoolRows) {
      const size_t count = std::min<size_t>(1 + rng.UniformInt(48),
                                            kPoolRows - next);
      started.store(next + count, std::memory_order_release);
      auto first = manager.Append(
          kTarget,
          std::vector<double>(f.pool.begin() + next * kDim,
                              f.pool.begin() + (next + count) * kDim));
      if (!first.ok() || first.value() != kBaseRows + next) {
        failures.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      next += count;
      completed.store(next, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      std::vector<char> present(f.all.size());
      do {
        const size_t qi = rng.UniformInt(f.queries.size());
        const size_t completed_before =
            completed.load(std::memory_order_acquire);
        const Catalog::ShardedPtr view = manager.Pin(kTarget);
        if (view == nullptr) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const Result<InequalityResult> got =
            view->Inequality(f.queries[qi], Deadline::Infinite());
        if (!got.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const size_t started_after = started.load(std::memory_order_acquire);
        bool bad = false;
        std::fill(present.begin(), present.end(), 0);
        for (uint32_t id : got->ids) {
          // (b) never a row whose batch had not started, never a
          // duplicate, never a non-satisfying row.
          if (id >= kBaseRows + started_after || present[id] ||
              !f.satisfies[qi][id]) {
            bad = true;
            break;
          }
          present[id] = 1;
        }
        if (!bad) {
          // (a) every satisfying row published before the query began.
          const size_t visible_floor = kBaseRows + completed_before;
          for (size_t id = 0; id < visible_floor; ++id) {
            if (f.satisfies[qi][id] && !present[id]) {
              bad = true;
              break;
            }
          }
        }
        if (bad) failures.fetch_add(1, std::memory_order_relaxed);
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(completed.load(std::memory_order_acquire), kPoolRows);

  // Quiesce and compare exactly against a serial from-scratch build.
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_EQ(catalog.Find(kTarget)->size(), kBaseRows + kPoolRows);
  EXPECT_EQ(manager.gauges().delta_rows, 0u);
  EXPECT_GE(manager.gauges().merges, 1u);
  {
    PhiMatrix full(kDim);
    for (size_t i = 0; i < f.all.size(); ++i) full.AppendRow(f.all.row(i));
    IndexSetOptions set_options;
    set_options.budget = 4;
    auto fresh = PlanarIndexSet::Build(std::move(full), Domains(), set_options);
    ASSERT_TRUE(fresh.ok());
    for (size_t qi = 0; qi < f.queries.size(); ++qi) {
      const Catalog::ShardedPtr view = manager.Pin(kTarget);
      ASSERT_NE(view, nullptr);
      const Result<InequalityResult> got =
          view->Inequality(f.queries[qi], Deadline::Infinite());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(got->ids), Sorted(fresh->Inequality(f.queries[qi]).ids))
          << qi;
    }
  }
}

}  // namespace
}  // namespace planar
