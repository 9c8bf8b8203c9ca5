// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// ThreadSanitizer-targeted stress tests for the documented concurrency
// contract of PlanarIndexSet: all query methods are const and touch no
// mutable state, so any number of concurrent query batches over one shared
// set must be race-free (maintenance, by contrast, requires exclusive
// access and is not exercised here). The assertions double as a
// correctness check — every concurrent answer must equal the sequential
// one — but the real payload is running this binary under
// `cmake --preset tsan`, which machine-checks the "concurrent queries are
// safe" claim instead of trusting the comment.

#include "core/index_set.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"

namespace planar {
namespace {

// Small enough to stay fast under TSan's ~10x slowdown, large enough that
// query batches overlap in time across the hammering threads.
constexpr size_t kPoints = 600;
constexpr size_t kDim = 3;
constexpr size_t kQueries = 24;
constexpr size_t kHammerThreads = 4;
constexpr size_t kRounds = 3;
constexpr size_t kTopK = 8;

class ParallelRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PhiMatrix phi = RandomPhi(kPoints, kDim, 1.0, 100.0, 1234);
    reference_ = std::make_unique<PhiMatrix>(kDim);
    for (size_t i = 0; i < phi.size(); ++i) reference_->AppendRow(phi.row(i));
    IndexSetOptions options;
    options.budget = 4;
    auto set = PlanarIndexSet::Build(
        std::move(phi), std::vector<ParameterDomain>(kDim, {1.0, 5.0}),
        options);
    PLANAR_CHECK(set.ok());
    set_ = std::make_unique<PlanarIndexSet>(std::move(set).value());

    Rng rng(5678);
    for (size_t i = 0; i < kQueries; ++i) {
      queries_.push_back({{rng.Uniform(1, 5), rng.Uniform(1, 5),
                           rng.Uniform(1, 5)},
                          rng.Uniform(100, 900),
                          i % 2 == 0 ? Comparison::kLessEqual
                                     : Comparison::kGreaterEqual});
    }
    for (const ScalarProductQuery& q : queries_) {
      expected_ids_.push_back(BruteForceMatches(*reference_, q));
    }
  }

  std::unique_ptr<PhiMatrix> reference_;
  std::unique_ptr<PlanarIndexSet> set_;
  std::vector<ScalarProductQuery> queries_;
  std::vector<std::vector<uint32_t>> expected_ids_;
};

TEST_F(ParallelRaceTest, OverlappingInequalityBatchesAreRaceFree) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> hammers;
  for (size_t t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<InequalityResult> results(queries_.size());
        ThreadPool::Shared().ParallelFor(
            queries_.size(),
            [&](size_t i) { results[i] = set_->Inequality(queries_[i]); }, 3);
        for (size_t i = 0; i < queries_.size(); ++i) {
          if (Sorted(results[i].ids) != expected_ids_[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& h : hammers) h.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelRaceTest, OverlappingTopKBatchesAreRaceFree) {
  // Reference answers computed sequentially before any concurrency.
  std::vector<std::vector<uint32_t>> expected_neighbors;
  for (const ScalarProductQuery& q : queries_) {
    auto r = set_->TopK(q, kTopK);
    PLANAR_CHECK(r.ok());
    std::vector<uint32_t> ids;
    for (const auto& n : r->neighbors) ids.push_back(n.id);
    expected_neighbors.push_back(std::move(ids));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> hammers;
  for (size_t t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<Result<TopKResult>> results(
            queries_.size(), Status::Internal("not executed"));
        ThreadPool::Shared().ParallelFor(
            queries_.size(),
            [&](size_t i) { results[i] = set_->TopK(queries_[i], kTopK); }, 3);
        for (size_t i = 0; i < queries_.size(); ++i) {
          if (!results[i].ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          std::vector<uint32_t> ids;
          for (const auto& n : results[i]->neighbors) ids.push_back(n.id);
          if (ids != expected_neighbors[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& h : hammers) h.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelRaceTest, MixedQueryKindsShareOneSet) {
  // Inequality, top-k, explain, and selectivity estimation all running
  // concurrently over the same set — the widest read-only surface.
  std::atomic<int> failures{0};
  std::vector<std::thread> hammers;
  for (size_t t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries_.size(); ++i) {
          const ScalarProductQuery& q = queries_[i];
          switch ((t + i) % 4) {
            case 0: {
              if (Sorted(set_->Inequality(q).ids) != expected_ids_[i]) {
                failures.fetch_add(1);
              }
              break;
            }
            case 1: {
              if (!set_->TopK(q, kTopK).ok()) failures.fetch_add(1);
              break;
            }
            case 2: {
              const auto bounds = set_->EstimateSelectivity(q);
              if (!(bounds.lo <= bounds.hi)) failures.fetch_add(1);
              break;
            }
            default: {
              (void)set_->Explain(q);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& h : hammers) h.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParallelRaceTest, NestedParallelForOverSharedSet) {
  // ParallelFor inside ParallelFor-style outer threads: each outer thread
  // shards the batch itself, so inner workers from different outer threads
  // interleave arbitrarily on the shared set.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> outer;
  for (size_t t = 0; t < kHammerThreads; ++t) {
    outer.emplace_back([&] {
      ThreadPool::Shared().ParallelFor(
          queries_.size(),
          [&](size_t i) {
            const InequalityResult r = set_->Inequality(queries_[i]);
            if (Sorted(r.ids) != expected_ids_[i]) mismatches.fetch_add(1);
          },
          2);
    });
  }
  for (std::thread& th : outer) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace planar
