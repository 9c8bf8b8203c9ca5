// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Intra-query parallel II verification: sharded verification must return
// ids in exactly the serial order (deterministic merge), honor deadlines
// cooperatively, and stay race-free when queries themselves run
// concurrently (this suite is part of the tsan stress job in CI).

#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/planar_index.h"
#include "tests/test_util.h"

namespace planar {
namespace {

// A (phi, query) pair whose intermediate interval covers most of the
// dataset: with normal c = (1, 1) the key is x + y, while the query
// weighs axis 1 a thousand times heavier, so the rmin/rmax envelope is
// extremely wide and nearly everything needs exact verification — the
// worst case the parallel sharding exists for.
struct WideIICase {
  explicit WideIICase(size_t n, PlanarIndexOptions options = {},
                      uint64_t seed = 29) {
    phi = std::make_unique<PhiMatrix>(RandomPhi(n, 2, 0.0, 100.0, seed));
    options.enable_axis_exclusion = false;
    auto built =
        PlanarIndex::BuildFirstOctant(phi.get(), {1.0, 1.0}, options);
    PLANAR_CHECK(built.ok());
    index = std::make_unique<PlanarIndex>(std::move(built).value());
    query.a = {1.0, 1000.0};
    query.b = 100.0 * 1000.0 / 2.0;
    query.cmp = Comparison::kLessEqual;
  }

  size_t IntermediateSize() const {
    auto iv = index->ComputeIntervals(NormalizedQuery::From(query));
    PLANAR_CHECK(iv.ok());
    return iv->larger_begin - iv->smaller_end;
  }

  std::unique_ptr<PhiMatrix> phi;
  std::unique_ptr<PlanarIndex> index;
  ScalarProductQuery query;
};

TEST(ParallelVerifyTest, ShardedOrderIdenticalToSerial) {
  for (const auto backend : {PlanarIndexOptions::Backend::kSortedArray,
                             PlanarIndexOptions::Backend::kBTree}) {
    PlanarIndexOptions serial_options;
    serial_options.backend = backend;
    serial_options.parallel_verify_threads = 1;
    WideIICase serial_case(20000, serial_options);
    ASSERT_GE(serial_case.IntermediateSize(), kParallelVerifyMinRows)
        << "test query no longer exercises the parallel path";

    for (const size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
      PlanarIndexOptions parallel_options = serial_options;
      parallel_options.parallel_verify_threads = threads;
      WideIICase parallel_case(20000, parallel_options);

      const auto serial = serial_case.index->Inequality(serial_case.query);
      const auto parallel =
          parallel_case.index->Inequality(parallel_case.query);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(parallel.ok());
      // Exact vector equality: same ids in the same order, not merely the
      // same set.
      EXPECT_EQ(parallel->ids, serial->ids)
          << "backend=" << static_cast<int>(backend)
          << " threads=" << threads;
      EXPECT_EQ(parallel->stats.verified, serial->stats.verified);
    }

    // And both agree with brute force.
    const auto serial = serial_case.index->Inequality(serial_case.query);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(Sorted(serial->ids),
              BruteForceMatches(*serial_case.phi, serial_case.query));
  }
}

TEST(ParallelVerifyTest, SmallIntervalStaysSerial) {
  // Under the cutoff the parallel configuration must not spawn threads —
  // observable as identical behavior; this is a smoke check that tiny
  // queries still work with parallel_verify_threads set.
  PlanarIndexOptions options;
  options.parallel_verify_threads = 4;
  PhiMatrix phi = RandomPhi(500, 2, 0.0, 100.0, 31);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0}, options);
  ASSERT_TRUE(index.ok());
  ScalarProductQuery q;
  q.a = {1.0, 2.0};
  q.b = 150.0;
  auto got = index->Inequality(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(got->ids), BruteForceMatches(phi, q));
}

TEST(ParallelVerifyTest, ExpiredDeadlineCancelsShardedVerification) {
  PlanarIndexOptions options;
  options.parallel_verify_threads = 4;
  WideIICase c(20000, options);
  ASSERT_GE(c.IntermediateSize(), kParallelVerifyMinRows);
  auto result = c.index->Inequality(NormalizedQuery::From(c.query),
                                    Deadline::After(0.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Concurrent queriers over one shared index, each query itself sharding
// its II across threads: nested ParallelFor, shared immutable index state.
// Run under tsan in CI (part of the stress job).
TEST(ParallelVerifyTest, ConcurrentShardedQueriesAreRaceFree) {
  PlanarIndexOptions options;
  options.parallel_verify_threads = 2;
  WideIICase c(16000, options);
  ASSERT_GE(c.IntermediateSize(), kParallelVerifyMinRows);

  const auto expected = c.index->Inequality(c.query);
  ASSERT_TRUE(expected.ok());

  std::atomic<int> mismatches(0);
  ThreadPool::Shared().ParallelFor(
      8,
      [&](size_t i) {
        ScalarProductQuery q = c.query;
        q.b += static_cast<double>(i % 2);  // two distinct queries
        const auto got = c.index->Inequality(q);
        if (!got.ok()) {
          mismatches.fetch_add(1);
          return;
        }
        if (i % 2 == 0 && got->ids != expected->ids) mismatches.fetch_add(1);
      },
      4);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace planar
