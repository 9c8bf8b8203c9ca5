// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// SortEntries must produce the exact std::sort result — ascending
// (key, id) — for every thread count, every size around the serial
// cutoff, and heavy key duplication. This determinism is what the
// parallel build paths (and the serialized-blob CRC guarantee) stand on.
// SortIds must equal std::sort bitwise for every id bound, tiny and
// large sizes, and all-equal, duplicate-heavy, sorted and reversed
// input: the sharded gather's canonical order rests on it.

#include "core/sort_util.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace planar {
namespace {

using Entry = SortEntry;

std::vector<Entry> RandomEntries(size_t n, int distinct_keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double key =
        distinct_keys > 0
            ? static_cast<double>(rng.UniformInt(
                  static_cast<uint64_t>(distinct_keys)))
            : rng.Uniform(-1e9, 1e9);
    entries.push_back({key, static_cast<uint32_t>(i)});
  }
  // Shuffle entries so ties arrive in no particular id order.
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(i));
    std::swap(entries[i - 1], entries[j]);
  }
  return entries;
}

void ExpectSortedIdentically(std::vector<Entry> input, size_t threads) {
  std::vector<Entry> expected = input;
  std::sort(expected.begin(), expected.end());
  SortEntries(&input, threads);
  ASSERT_EQ(input.size(), expected.size());
  for (size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(input[i].key, expected[i].key) << "position " << i;
    ASSERT_EQ(input[i].id, expected[i].id) << "position " << i;
  }
}

TEST(SortUtilTest, EmptyAndSingle) {
  for (size_t threads : {1u, 2u, 8u}) {
    ExpectSortedIdentically({}, threads);
    ExpectSortedIdentically({{3.5, 0}}, threads);
  }
}

TEST(SortUtilTest, SizesAroundParallelCutoff) {
  const size_t cutoff = kParallelSortMinEntries;
  for (size_t n : {cutoff - 1, cutoff, cutoff + 1, 3 * cutoff + 17}) {
    for (size_t threads : {1u, 2u, 3u, 8u}) {
      ExpectSortedIdentically(RandomEntries(n, 0, 7 + n), threads);
    }
  }
}

TEST(SortUtilTest, HeavyDuplicateKeysTieBreakById) {
  // 5 distinct keys over 100k entries: runs of thousands of equal keys
  // force the merge to resolve order purely by id.
  for (size_t threads : {1u, 2u, 5u, 8u, 16u}) {
    ExpectSortedIdentically(RandomEntries(100'000, 5, 11), threads);
  }
}

TEST(SortUtilTest, AllEqualKeys) {
  for (size_t threads : {1u, 2u, 8u}) {
    ExpectSortedIdentically(RandomEntries(50'000, 1, 13), threads);
  }
}

TEST(SortUtilTest, ThreadCountsAgreeBitwise) {
  const std::vector<Entry> input = RandomEntries(200'000, 1000, 17);
  std::vector<Entry> serial = input;
  SortEntries(&serial, 1);
  for (size_t threads : {2u, 3u, 4u, 7u, 8u, 16u, 0u}) {
    std::vector<Entry> parallel = input;
    SortEntries(&parallel, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].key, serial[i].key)
          << "threads " << threads << " position " << i;
      ASSERT_EQ(parallel[i].id, serial[i].id)
          << "threads " << threads << " position " << i;
    }
  }
}

TEST(SortUtilTest, AlreadySortedAndReversed) {
  std::vector<Entry> asc;
  for (size_t i = 0; i < 40'000; ++i) {
    asc.push_back({static_cast<double>(i / 3), static_cast<uint32_t>(i)});
  }
  std::vector<Entry> desc(asc.rbegin(), asc.rend());
  for (size_t threads : {1u, 2u, 8u}) {
    ExpectSortedIdentically(asc, threads);
    ExpectSortedIdentically(desc, threads);
  }
}

std::vector<uint32_t> RandomIds(size_t n, uint64_t distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> ids(n);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.UniformInt(distinct));
  }
  return ids;
}

void ExpectIdsSortedIdentically(std::vector<uint32_t> input, uint32_t bound) {
  std::vector<uint32_t> expected = input;
  std::sort(expected.begin(), expected.end());
  SortIds(&input, bound);
  ASSERT_EQ(input, expected) << "n=" << input.size() << " bound=" << bound;
}

constexpr uint32_t kFullRange = std::numeric_limits<uint32_t>::max();

TEST(SortIdsTest, SizesAndBounds) {
  for (const uint32_t bound : {1u, 1u << 11, 1u << 17, kFullRange}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{255}, size_t{256}, size_t{100'000}}) {
      ExpectIdsSortedIdentically(RandomIds(n, bound, 3 + n + bound), bound);
    }
  }
}

TEST(SortIdsTest, HeavyDuplicates) {
  for (const uint32_t bound : {2u, 1u << 11, 1u << 17, kFullRange}) {
    // Five distinct values spread over the bound's whole range, so every
    // radix digit sees long runs of equal values.
    Rng rng(bound);
    std::vector<uint32_t> values;
    for (int i = 0; i < 5; ++i) {
      values.push_back(static_cast<uint32_t>(rng.UniformInt(bound)));
    }
    values.push_back(bound - 1);
    std::vector<uint32_t> ids = RandomIds(100'000, values.size(), 19);
    for (uint32_t& id : ids) id = values[id];
    ExpectIdsSortedIdentically(ids, bound);
  }
}

TEST(SortIdsTest, AllEqual) {
  // Every digit is constant, so every pass is skipped and the ids are
  // returned untouched.
  for (const uint32_t bound : {1u, 1u << 11, 1u << 17, kFullRange}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{5000}}) {
      ExpectIdsSortedIdentically(std::vector<uint32_t>(n, bound - 1), bound);
      ExpectIdsSortedIdentically(std::vector<uint32_t>(n, 0), bound);
    }
  }
}

TEST(SortIdsTest, NarrowRangeUnderWideBound) {
  // Every id shares its high digit, so that radix pass is skipped and
  // the answer comes back from the scratch buffer after one pass.
  std::vector<uint32_t> ids = RandomIds(5000, 300, 29);
  for (uint32_t& id : ids) id += 1u << 16;
  ExpectIdsSortedIdentically(ids, 1u << 17);
}

TEST(SortIdsTest, AlreadySortedAndReversed) {
  for (const uint32_t bound : {1u << 11, 1u << 17, kFullRange}) {
    // Nondecreasing ids spanning [0, bound); repeats when bound < n.
    std::vector<uint32_t> asc(100'000);
    for (size_t i = 0; i < asc.size(); ++i) {
      asc[i] = static_cast<uint32_t>(uint64_t{i} * bound / asc.size());
    }
    const std::vector<uint32_t> desc(asc.rbegin(), asc.rend());
    ExpectIdsSortedIdentically(asc, bound);
    ExpectIdsSortedIdentically(desc, bound);
  }
}

TEST(SortIdsDeathTest, IdAtOrAboveBoundAborts) {
  std::vector<uint32_t> ids = RandomIds(1000, 1u << 11, 23);
  ids[500] = 1u << 11;
  EXPECT_DEATH(SortIds(&ids, 1u << 11), "PLANAR_CHECK");
}

}  // namespace
}  // namespace planar
