// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/query.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/octant.h"

namespace planar {
namespace {

TEST(ScalarProductQueryTest, MatchesLessEqual) {
  ScalarProductQuery q{{1.0, 1.0}, 5.0, Comparison::kLessEqual};
  const double in[] = {2.0, 2.0};
  const double edge[] = {2.5, 2.5};
  const double out[] = {3.0, 3.0};
  EXPECT_TRUE(q.Matches(in));
  EXPECT_TRUE(q.Matches(edge));
  EXPECT_FALSE(q.Matches(out));
}

TEST(ScalarProductQueryTest, MatchesGreaterEqual) {
  ScalarProductQuery q{{2.0, -1.0}, 1.0, Comparison::kGreaterEqual};
  const double yes[] = {1.0, 0.5};  // 2 - 0.5 = 1.5 >= 1
  const double no[] = {0.0, 0.5};   // -0.5 < 1
  EXPECT_TRUE(q.Matches(yes));
  EXPECT_FALSE(q.Matches(no));
}

TEST(ScalarProductQueryTest, Residual) {
  ScalarProductQuery q{{1.0, 2.0}, 4.0, Comparison::kLessEqual};
  const double p[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(q.Residual(p), -1.0);
}

TEST(ScalarProductQueryTest, DistanceIsHyperplaneDistance) {
  ScalarProductQuery q{{3.0, 4.0}, 5.0, Comparison::kLessEqual};
  const double p[] = {3.0, 4.0};  // <a,p> = 25, |a| = 5 -> dist = 4
  EXPECT_DOUBLE_EQ(q.Distance(p), 4.0);
}

TEST(ScalarProductQueryTest, ToStringMentionsDirection) {
  ScalarProductQuery le{{1.0}, 2.0, Comparison::kLessEqual};
  ScalarProductQuery ge{{1.0}, 2.0, Comparison::kGreaterEqual};
  EXPECT_NE(le.ToString().find("<="), std::string::npos);
  EXPECT_NE(ge.ToString().find(">="), std::string::npos);
}

TEST(NormalizedQueryTest, NonNegativeBUnchanged) {
  ScalarProductQuery q{{1.0, -2.0}, 3.0, Comparison::kLessEqual};
  const NormalizedQuery n = NormalizedQuery::From(q);
  EXPECT_EQ(std::vector<double>(n.a.begin(), n.a.end()), q.a);
  EXPECT_EQ(n.b, 3.0);
  EXPECT_EQ(n.cmp, Comparison::kLessEqual);
}

TEST(NormalizedQueryTest, NegativeBFlipsEverything) {
  ScalarProductQuery q{{1.0, -2.0}, -3.0, Comparison::kLessEqual};
  const NormalizedQuery n = NormalizedQuery::From(q);
  EXPECT_EQ(std::vector<double>(n.a.begin(), n.a.end()),
            (std::vector<double>{-1.0, 2.0}));
  EXPECT_EQ(n.b, 3.0);
  EXPECT_EQ(n.cmp, Comparison::kGreaterEqual);
}

TEST(NormalizedQueryTest, FlipPreservesPredicate) {
  ScalarProductQuery q{{2.0, -1.5}, -0.7, Comparison::kGreaterEqual};
  const NormalizedQuery n = NormalizedQuery::From(q);
  EXPECT_EQ(n.cmp, Comparison::kLessEqual);
  for (double x0 : {-2.0, -0.5, 0.0, 0.3, 1.9}) {
    for (double x1 : {-1.0, 0.0, 2.5}) {
      const double phi[] = {x0, x1};
      const double orig = 2.0 * x0 - 1.5 * x1;
      const bool orig_match = orig >= -0.7;
      const double flipped = n.a[0] * x0 + n.a[1] * x1;
      const bool norm_match = n.cmp == Comparison::kLessEqual
                                  ? flipped <= n.b
                                  : flipped >= n.b;
      EXPECT_EQ(orig_match, norm_match) << x0 << "," << x1;
      (void)phi;
    }
  }
}

TEST(NormalizedQueryTest, OctantFollowsSigns) {
  const NormalizedQuery n =
      NormalizedQuery::From({{1.0, -2.0, 0.0}, 1.0, Comparison::kLessEqual});
  const Octant octant = Octant::FromNormal(n.a);
  EXPECT_EQ(octant.sign(0), 1.0);
  EXPECT_EQ(octant.sign(1), -1.0);
  EXPECT_EQ(octant.sign(2), 1.0);  // zero maps to +
}

TEST(NormalizedQueryTest, Degenerate) {
  EXPECT_TRUE(NormalizedQuery::From({{0.0, 0.0}, 1.0, Comparison::kLessEqual})
                  .IsDegenerate());
  EXPECT_FALSE(
      NormalizedQuery::From({{0.0, 0.1}, 1.0, Comparison::kLessEqual})
          .IsDegenerate());
}

TEST(ScalarProductQueryTest, IsFiniteAcceptsOrdinaryParameters) {
  EXPECT_TRUE((ScalarProductQuery{{1.0, -2.0, 0.0}, 3.0,
                                  Comparison::kLessEqual})
                  .IsFinite());
  // Zero, negative, and denormal components are all legitimate finite
  // parameters; only NaN and infinities are excluded.
  EXPECT_TRUE((ScalarProductQuery{{0.0, -0.0, 5e-324}, -7.5,
                                  Comparison::kGreaterEqual})
                  .IsFinite());
}

TEST(ScalarProductQueryTest, IsFiniteRejectsNaNAndInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((ScalarProductQuery{{nan, 1.0}, 1.0,
                                   Comparison::kLessEqual})
                   .IsFinite());
  EXPECT_FALSE((ScalarProductQuery{{1.0, inf}, 1.0,
                                   Comparison::kLessEqual})
                   .IsFinite());
  EXPECT_FALSE((ScalarProductQuery{{1.0, -inf}, 1.0,
                                   Comparison::kGreaterEqual})
                   .IsFinite());
  EXPECT_FALSE((ScalarProductQuery{{1.0, 1.0}, nan,
                                   Comparison::kLessEqual})
                   .IsFinite());
  EXPECT_FALSE((ScalarProductQuery{{1.0, 1.0}, -inf,
                                   Comparison::kLessEqual})
                   .IsFinite());
}

TEST(NormalizedQueryTest, IsFiniteSurvivesNormalization) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(NormalizedQuery::From({{1.0, -2.0}, -3.0,
                                     Comparison::kLessEqual})
                  .IsFinite());
  EXPECT_FALSE(NormalizedQuery::From({{nan, -2.0}, -3.0,
                                      Comparison::kLessEqual})
                   .IsFinite());
}

TEST(NormalizedQueryTest, NormA) {
  const NormalizedQuery n =
      NormalizedQuery::From({{3.0, 4.0}, 0.0, Comparison::kLessEqual});
  EXPECT_DOUBLE_EQ(n.NormA(), 5.0);
}

}  // namespace
}  // namespace planar
