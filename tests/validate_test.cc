// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/validate.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"

namespace planar {
namespace {

TEST(ValidateIndexTest, FreshIndexValidates) {
  PhiMatrix phi = RandomPhi(1000, 3, -10.0, 10.0, 131);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 0.5});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(ValidateIndex(*index, phi).ok());
}

TEST(ValidateIndexTest, MaintainedIndexValidates) {
  PhiMatrix phi = RandomPhi(500, 2, 1.0, 100.0, 132);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  Rng rng(133);
  std::vector<double> row(2);
  for (int i = 0; i < 50; ++i) {
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(500));
    row[0] = rng.Uniform(1, 100);
    row[1] = rng.Uniform(1, 100);
    phi.SetRow(target, row.data());
    ASSERT_TRUE(index->Update(target));
  }
  EXPECT_TRUE(ValidateIndex(*index, phi).ok());
}

TEST(ValidateIndexTest, DetectsStaleKeyAfterSilentMutation) {
  PhiMatrix phi = RandomPhi(200, 2, 1.0, 100.0, 134);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  // Mutate the matrix WITHOUT telling the index.
  const double moved[] = {50.0, 50.0};
  phi.SetRow(7, moved);
  const Status status = ValidateIndex(*index, phi);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("stale key"), std::string::npos);
}

TEST(ValidateIndexTest, DetectsEscapedTranslation) {
  PhiMatrix phi = RandomPhi(100, 1, 1.0, 10.0, 135);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0});
  ASSERT_TRUE(index.ok());
  const double escaped[] = {-1000.0};
  phi.SetRow(3, escaped);
  const Status status = ValidateIndex(*index, phi);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("translation"), std::string::npos);
}

TEST(ValidateIndexTest, DetectsSizeMismatch) {
  PhiMatrix phi = RandomPhi(50, 2, 1.0, 10.0, 136);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  phi.AppendRow({5.0, 5.0});  // appended without NotifyAppend
  EXPECT_FALSE(ValidateIndex(*index, phi).ok());
}

TEST(ValidateIndexSetTest, WholeSetAuditsClean) {
  PhiMatrix phi = RandomPhi(800, 3, -20.0, 20.0, 137);
  auto set = PlanarIndexSet::Build(
      std::move(phi), std::vector<ParameterDomain>(3, {1.0, 6.0}));
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(ValidateIndexSet(*set).ok());
  // Keep auditing clean across maintenance.
  const double row[] = {3.0, 4.0, 5.0};
  ASSERT_TRUE(set->UpdateRow(11, row).ok());
  ASSERT_TRUE(set->AppendRow(row).ok());
  EXPECT_TRUE(ValidateIndexSet(*set).ok());
}

}  // namespace
}  // namespace planar
