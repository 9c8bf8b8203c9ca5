// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "common/deadline.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/index_set.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingMillis()));
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  const Deadline d = Deadline::After(0.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineIsNotExpired) {
  const Deadline d = Deadline::After(60000.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, NegativeMillisClampToNow) {
  EXPECT_TRUE(Deadline::After(-100.0).Expired());
}

class DeadlineQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PhiMatrix phi = RandomPhi(2000, 3, -20.0, 80.0, 7);
    auto set = PlanarIndexSet::Build(
        std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}});
    ASSERT_TRUE(set.ok());
    set_ = std::make_unique<PlanarIndexSet>(std::move(set).value());
    query_.a = {2.0, -3.0, 4.0};
    query_.b = 100.0;
    query_.cmp = Comparison::kLessEqual;
  }

  std::unique_ptr<PlanarIndexSet> set_;
  ScalarProductQuery query_;
};

TEST_F(DeadlineQueryTest, ExpiredDeadlineAbortsInequalityBeforeVerification) {
  // The query has a non-trivial intermediate interval, so completing it
  // requires II verification work the expired deadline must cut short.
  const auto explanation = set_->Explain(query_);
  ASSERT_GT(explanation.index_explanation.intermediate(), 0u);

  auto result = set_->Inequality(query_, Deadline::After(0.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlineQueryTest, InfiniteDeadlineMatchesPlainOverload) {
  const InequalityResult plain = set_->Inequality(query_);
  auto with_deadline = set_->Inequality(query_, Deadline::Infinite());
  ASSERT_TRUE(with_deadline.ok());
  EXPECT_EQ(Sorted(with_deadline->ids), Sorted(plain.ids));

  auto generous = set_->Inequality(query_, Deadline::After(60000.0));
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(Sorted(generous->ids), Sorted(plain.ids));
}

TEST_F(DeadlineQueryTest, ExpiredDeadlineAbortsTopK) {
  auto result = set_->TopK(query_, 10, Deadline::After(0.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  auto ok = set_->TopK(query_, 10, Deadline::Infinite());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->neighbors.size(), 10u);
}

TEST_F(DeadlineQueryTest, ExpiredDeadlineAbortsScan) {
  auto scan = ScanInequality(set_->phi(), query_, Deadline::After(0.0));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kDeadlineExceeded);

  auto topk = ScanTopK(set_->phi(), query_, 5, Deadline::After(0.0));
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(topk.status().code(), StatusCode::kDeadlineExceeded);

  auto full = ScanInequality(set_->phi(), query_, Deadline::Infinite());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(Sorted(full->ids), BruteForceMatches(set_->phi(), query_));
}

// Every query kind cut short by an expired deadline answers with its own
// message, byte for byte: the four index kinds (on a non-empty II, so
// each must verify; COUNT and SUM at tolerance 0) and the four scan kinds.
TEST(DeadlineMessageTest, EveryKindPinsItsMessage) {
  PhiMatrix phi = RandomPhi(2000, 3, 0.0, 100.0, 9);
  PlanarIndexOptions options;
  options.payload_column = 0;
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 1.0}, options);
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 2.0, 3.0}, 300.0, Comparison::kLessEqual};
  const NormalizedQuery nq = NormalizedQuery::From(q);
  auto intervals = index->ComputeIntervals(nq);
  ASSERT_TRUE(intervals.ok());
  ASSERT_GT(intervals->intermediate(), 0u);

  const Deadline expired = Deadline::After(0.0);
  const CountTolerance exact;
  const struct {
    const char* kind;
    Status status;
    const char* message;
  } cases[] = {
      {"index inequality", index->Inequality(nq, expired).status(),
       "inequality query exceeded its deadline during II verification"},
      {"index count", index->CountInequality(nq, exact, expired).status(),
       "count query exceeded its deadline during II refinement"},
      {"index sum", index->AggregateInequality(nq, exact, expired).status(),
       "aggregate query exceeded its deadline during II refinement"},
      {"index top-k", index->TopK(nq, 5, expired).status(),
       "top-k query exceeded its deadline during candidate evaluation"},
      {"scan inequality", ScanInequality(phi, q, expired).status(),
       "sequential scan exceeded its deadline"},
      {"scan count", ScanCountInequality(phi, q, expired).status(),
       "sequential scan exceeded its deadline"},
      {"scan sum", ScanAggregateInequality(phi, 0, q, expired).status(),
       "sequential scan exceeded its deadline"},
      {"scan top-k", ScanTopK(phi, q, 5, expired).status(),
       "sequential top-k scan exceeded its deadline"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.status.code(), StatusCode::kDeadlineExceeded) << c.kind;
    EXPECT_EQ(c.status.message(), c.message) << c.kind;
  }
}

// Deadline polling is amortized to once per verification block
// (kernels::kBlockRows rows). These regressions pin down that a short —
// but not yet expired — deadline still cancels the query part-way
// through a large intermediate interval, rather than being checked only
// once up front.
TEST(DeadlineMidVerificationTest, ShortDeadlineCancelsScanMidway) {
  // ~2M row-dot-products at d'=4: far more work than fits in 0.05 ms, so
  // some block poll after the first must observe the expiry.
  PhiMatrix phi = RandomPhi(500000, 4, 0.0, 100.0, 11);
  ScalarProductQuery q;
  q.a = {1.0, 2.0, 3.0, 4.0};
  q.b = 500.0;
  auto result = ScanInequality(phi, q, Deadline::After(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  auto topk = ScanTopK(phi, q, 10, Deadline::After(0.05));
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(topk.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineMidVerificationTest, ShortDeadlineCancelsIndexMidII) {
  // A query whose per-axis ratio spread makes the intermediate interval
  // cover nearly the whole dataset, so verification dominates.
  PlanarIndexOptions options;
  options.enable_axis_exclusion = false;
  PhiMatrix phi = RandomPhi(300000, 2, 0.0, 100.0, 12);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0}, options);
  ASSERT_TRUE(index.ok());
  ScalarProductQuery q;
  q.a = {1.0, 1000.0};
  q.b = 100.0 * 1000.0 / 2.0;
  const NormalizedQuery nq = NormalizedQuery::From(q);
  auto intervals = index->ComputeIntervals(nq);
  ASSERT_TRUE(intervals.ok());
  ASSERT_GT(intervals->larger_begin - intervals->smaller_end, 100000u);

  auto result = index->Inequality(nq, Deadline::After(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace planar
