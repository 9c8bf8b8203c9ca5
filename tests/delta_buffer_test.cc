// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/delta_buffer.h"

#include <vector>

#include <gtest/gtest.h>

namespace planar {
namespace {

TEST(DeltaBufferTest, AppendPublishesRowsInOrder) {
  DeltaBuffer delta(2, 8);
  EXPECT_EQ(delta.size(), 0u);
  EXPECT_EQ(delta.dim(), 2u);
  EXPECT_EQ(delta.capacity(), 8u);

  const std::vector<double> first = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(delta.Append(first.data(), 2));
  EXPECT_EQ(delta.size(), 2u);

  const std::vector<double> second = {5.0, 6.0};
  ASSERT_TRUE(delta.Append(second.data(), 1));
  ASSERT_EQ(delta.size(), 3u);
  const double* rows = delta.data();
  EXPECT_EQ(rows[0], 1.0);
  EXPECT_EQ(rows[3], 4.0);
  EXPECT_EQ(rows[4], 5.0);
  EXPECT_EQ(rows[5], 6.0);
}

TEST(DeltaBufferTest, ZeroCountAppendIsANoOp) {
  DeltaBuffer delta(3, 4);
  EXPECT_TRUE(delta.Append(nullptr, 0));
  EXPECT_EQ(delta.size(), 0u);
}

TEST(DeltaBufferTest, ShedsWhenFullWithoutPartialAppend) {
  DeltaBuffer delta(1, 3);
  const std::vector<double> rows = {1.0, 2.0, 3.0, 4.0};
  // Larger than capacity: rejected outright, nothing published.
  EXPECT_FALSE(delta.Append(rows.data(), 4));
  EXPECT_EQ(delta.size(), 0u);

  ASSERT_TRUE(delta.Append(rows.data(), 2));
  // Two rows would overflow the remaining one slot: all-or-nothing.
  EXPECT_FALSE(delta.Append(rows.data(), 2));
  EXPECT_EQ(delta.size(), 2u);
  ASSERT_TRUE(delta.Append(rows.data() + 2, 1));
  EXPECT_EQ(delta.size(), 3u);
  EXPECT_FALSE(delta.Append(rows.data(), 1));  // exactly full
}

TEST(DeltaBufferTest, StorageNeverMoves) {
  DeltaBuffer delta(2, 1024);
  const double* before = delta.data();
  std::vector<double> row = {7.0, 8.0};
  for (int i = 0; i < 1024; ++i) ASSERT_TRUE(delta.Append(row.data(), 1));
  EXPECT_EQ(delta.data(), before);  // readers' pointers stay valid
  EXPECT_EQ(delta.size(), 1024u);
}

}  // namespace
}  // namespace planar
