// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Heap allocations per served query. This binary replaces the global
// operator new/delete with malloc/free plus a counter, then counts the
// allocations one PlanarIndexSet query makes on a 2-d, 10-index set.
//
// The bound is zero: a query normalizes its parameters once into inline
// storage (NormalizedQuery::From), selection scores every candidate index
// through one stack scratch and serves the winner from its plan, so
// nothing may allocate except the answer's own result vector
// (Inequality's ids, TopK's neighbours), which is not counted here.
// Before plans, the same CountInequality made 62 allocations: five
// vectors per Prepare, twelve Prepares per request; before inline query
// parameters, 1 (the normalized query's copy of `a`).

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// GCC's -Wmismatched-new-delete reads the free() inside these replacement
// operators as a mismatch with the new-expressions that reach them; every
// allocation here comes from CountedAlloc's malloc, so free is the match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace planar {
namespace {

// Allocations one query may make beyond its result vector.
constexpr size_t kMaxAllocationsPerQuery = 0;

template <typename F>
size_t AllocationsOf(const F& f) {
  const size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

class PlanAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IndexSetOptions options;
    options.budget = 10;
    // Payload column 1 arms AggregateInequality; it adds no per-query work
    // to the other query kinds.
    options.index_options.payload_column = 1;
    auto set = PlanarIndexSet::Build(
        RandomPhi(20000, 2, 0.0, 100.0, 11),
        std::vector<ParameterDomain>(2, {1.0, 8.0}), options);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_EQ(set->num_indices(), 10u);
    set_.emplace(std::move(set).value());
    // Selective queries in both directions, as a serving workload sends.
    Rng rng(12);
    for (int i = 0; i < 16; ++i) {
      ScalarProductQuery q;
      q.a = {rng.Uniform(1.0, 8.0), rng.Uniform(1.0, 8.0)};
      const double top = 100.0 * (q.a[0] + q.a[1]);
      const bool le = i % 2 == 0;
      q.b = le ? rng.Uniform(0.02, 0.08) * top : rng.Uniform(0.92, 0.98) * top;
      q.cmp = le ? Comparison::kLessEqual : Comparison::kGreaterEqual;
      queries_.push_back(q);
    }
    // Warm every lazily initialized static (kernel dispatch, etc.).
    for (const ScalarProductQuery& q : queries_) {
      ASSERT_TRUE(set_->CountInequality(q).ok());
      ASSERT_TRUE(set_->AggregateInequality(q).ok());
      ASSERT_TRUE(set_->TopK(q, 10).ok());
      (void)set_->Inequality(q);
    }
  }

  std::optional<PlanarIndexSet> set_;
  std::vector<ScalarProductQuery> queries_;
};

TEST_F(PlanAllocTest, CountInequalityAllocatesNothing) {
  for (const ScalarProductQuery& q : queries_) {
    Result<CountResult> result = Status::Internal("not run");
    const size_t allocations =
        AllocationsOf([&] { result = set_->CountInequality(q); });
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->stats.index_used, 0) << q.ToString();
    EXPECT_LE(allocations, kMaxAllocationsPerQuery) << q.ToString();
  }
}

// A refined SUM streams the II through the same counting blocks as
// COUNT; its stop predicate must not cost an allocation either.
TEST_F(PlanAllocTest, AggregateInequalityAllocatesNothing) {
  size_t refined = 0;
  for (const ScalarProductQuery& q : queries_) {
    Result<AggregateResult> result = Status::Internal("not run");
    const size_t allocations =
        AllocationsOf([&] { result = set_->AggregateInequality(q); });
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->count.stats.index_used, 0) << q.ToString();
    if (result->refined) ++refined;
    EXPECT_LE(allocations, kMaxAllocationsPerQuery) << q.ToString();
  }
  EXPECT_GT(refined, 0u);
}

TEST_F(PlanAllocTest, InequalityAllocatesOnlyItsIds) {
  for (const ScalarProductQuery& q : queries_) {
    InequalityResult result;
    const size_t allocations =
        AllocationsOf([&] { result = set_->Inequality(q); });
    EXPECT_GE(result.stats.index_used, 0) << q.ToString();
    const size_t result_vectors = result.ids.capacity() > 0 ? 1 : 0;
    EXPECT_LE(allocations, kMaxAllocationsPerQuery + result_vectors)
        << q.ToString();
  }
}

TEST_F(PlanAllocTest, TopKAllocatesOnlyItsNeighbors) {
  for (const ScalarProductQuery& q : queries_) {
    Result<TopKResult> result = Status::Internal("not run");
    const size_t allocations =
        AllocationsOf([&] { result = set_->TopK(q, 10); });
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->stats.index_used, 0) << q.ToString();
    const size_t result_vectors = result->neighbors.capacity() > 0 ? 1 : 0;
    EXPECT_LE(allocations, kMaxAllocationsPerQuery + result_vectors)
        << q.ToString();
  }
}

}  // namespace
}  // namespace planar
