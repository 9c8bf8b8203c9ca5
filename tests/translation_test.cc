// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/translation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/query.h"
#include "geometry/vec.h"

namespace planar {
namespace {

Translator::Options NoMargin() {
  Translator::Options o;
  o.delta_margin = 0.0;
  return o;
}

TEST(TranslatorTest, FirstOctantNonNegativeDataNeedsNoShift) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {1.0, 2.0, 3.0, 4.0});
  Translator t = Translator::Create(phi, Octant::First(2), NoMargin());
  EXPECT_EQ(t.delta(), (std::vector<double>{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(t.Mirror(0, 1.5), 1.5);
}

TEST(TranslatorTest, FirstOctantNegativeDataShifted) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {-3.0, 5.0});
  Translator t = Translator::Create(phi, Octant::First(1), NoMargin());
  // delta = max wrong-sign magnitude = 3.
  EXPECT_DOUBLE_EQ(t.delta()[0], 3.0);
  EXPECT_DOUBLE_EQ(t.Mirror(0, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(t.Mirror(0, 5.0), 8.0);
  EXPECT_DOUBLE_EQ(t.PsiMin(0), 0.0);
  EXPECT_DOUBLE_EQ(t.PsiMax(0), 8.0);
}

TEST(TranslatorTest, NegativeOctantAxis) {
  // Octant sign -1 on the only axis; data has positive (wrong-sign) values
  // up to 4.
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {-2.0, 4.0, 1.0});
  Translator t =
      Translator::Create(phi, Octant::FromNormal({-1.0}), NoMargin());
  EXPECT_DOUBLE_EQ(t.delta()[0], 4.0);
  // psi = -phi + delta >= 0 for all stored values.
  EXPECT_DOUBLE_EQ(t.Mirror(0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(t.Mirror(0, -2.0), 6.0);
  EXPECT_DOUBLE_EQ(t.PsiMin(0), 0.0);
  EXPECT_DOUBLE_EQ(t.PsiMax(0), 6.0);
}

TEST(TranslatorTest, MirrorIsNonNegativeOnData) {
  Rng rng(3);
  PhiMatrix phi(4);
  for (int i = 0; i < 200; ++i) {
    phi.AppendRow({rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                   rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  for (uint64_t pattern = 0; pattern < 16; ++pattern) {
    std::vector<double> rep(4);
    for (size_t i = 0; i < 4; ++i) rep[i] = (pattern >> i) & 1 ? -1.0 : 1.0;
    Translator t =
        Translator::Create(phi, Octant::FromNormal(rep), NoMargin());
    for (size_t r = 0; r < phi.size(); ++r) {
      EXPECT_TRUE(t.Covers(phi.row(r)));
      for (size_t i = 0; i < 4; ++i) {
        EXPECT_GE(t.Mirror(i, phi.at(r, i)), 0.0);
      }
    }
  }
}

TEST(TranslatorTest, CoversDetectsEscapedRow) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {-1.0, 1.0});
  Translator t = Translator::Create(phi, Octant::First(1), NoMargin());
  const double inside[] = {-0.5};
  const double outside[] = {-2.0};
  EXPECT_TRUE(t.Covers(inside));
  EXPECT_FALSE(t.Covers(outside));
}

TEST(TranslatorTest, DeltaMarginWidens) {
  PhiMatrix phi = RowMatrix::FromRowMajor(1, {-10.0, 1.0});
  Translator::Options opts;
  opts.delta_margin = 0.5;
  Translator t = Translator::Create(phi, Octant::First(1), opts);
  EXPECT_DOUBLE_EQ(t.delta()[0], 15.0);
  const double escaped_without_margin[] = {-12.0};
  EXPECT_TRUE(t.Covers(escaped_without_margin));
}

TEST(TranslatorTest, MirroredOffsetPreservesResidual) {
  // Claim 1 + mirror: <a~, psi> - b' must equal <a, phi> - b on every row.
  Rng rng(5);
  PhiMatrix phi(3);
  for (int i = 0; i < 100; ++i) {
    phi.AppendRow(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
  }
  const ScalarProductQuery q{{2.0, -3.0, 0.5}, 1.0, Comparison::kLessEqual};
  const NormalizedQuery n = NormalizedQuery::From(q);
  Translator t = Translator::Create(phi, Octant::FromNormal(n.a), NoMargin());
  const double b_prime = t.MirroredOffset(n);
  EXPECT_GE(b_prime, n.b);
  for (size_t r = 0; r < phi.size(); ++r) {
    double mirrored = 0.0;
    for (size_t i = 0; i < 3; ++i) {
      mirrored += std::fabs(n.a[i]) * t.Mirror(i, phi.at(r, i));
    }
    const double original = Dot(n.a.data(), phi.row(r), 3) - n.b;
    EXPECT_NEAR(mirrored - b_prime, original, 1e-9);
  }
}

TEST(TranslatorTest, PsiBoundsBracketData) {
  Rng rng(6);
  PhiMatrix phi(2);
  for (int i = 0; i < 100; ++i) {
    phi.AppendRow({rng.Uniform(-7, 3), rng.Uniform(2, 9)});
  }
  Translator t =
      Translator::Create(phi, Octant::FromNormal({1.0, -1.0}), NoMargin());
  for (size_t r = 0; r < phi.size(); ++r) {
    for (size_t i = 0; i < 2; ++i) {
      const double psi = t.Mirror(i, phi.at(r, i));
      EXPECT_GE(psi, t.PsiMin(i) - 1e-12);
      EXPECT_LE(psi, t.PsiMax(i) + 1e-12);
    }
  }
}

TEST(TranslatorDeathTest, EmptyMatrixAborts) {
  PhiMatrix phi(1);
  EXPECT_DEATH((void)Translator::Create(phi, Octant::First(1)),
               "PLANAR_CHECK");
}

}  // namespace
}  // namespace planar
