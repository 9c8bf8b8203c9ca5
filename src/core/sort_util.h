// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The tree's one sorting chokepoint for core containers (enforced by
// tools/planar_lint.py, rule core-sort-via-sort-util): index builds sort
// their (key, id) entries through SortEntries, which produces exactly
// the std::sort result, so swapping the algorithm underneath can never
// change an answer. Query answers sort nothing: partitioned reads return
// ids in part order (core/sharded.h).
//
// SortEntries is shard-sort + multiway merge on top of the shared
// ThreadPool (ThreadPool::Shared().ParallelFor): the entry array is cut
// into contiguous shards, each shard is std::sort-ed on its own thread,
// and sorted runs are merged pairwise (also in parallel) until one run
// remains. Because entries are
// ordered by the total (key, id) lexicographic order and ids are unique
// in every index build, the sorted sequence is unique — the output is
// bit-identical for ANY thread count, including 1, and identical to a
// plain std::sort. That invariant is what makes parallel index
// construction safe to enable anywhere: serialized snapshots, query
// answers, and rank boundaries cannot depend on how many cores the build
// machine had (machine-checked by tests/sort_util_test.cc and the
// serialized-blob CRC test in tests/build_determinism_test.cc).
//
// Caveat: with duplicate (key, id) PAIRS whose doubles are equivalent but
// not bit-identical (-0.0 vs +0.0 under the same id) the order among the
// equivalent duplicates is unspecified, exactly as with std::sort. Index
// builds never produce such pairs (one entry per row id).

#ifndef PLANAR_CORE_SORT_UTIL_H_
#define PLANAR_CORE_SORT_UTIL_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace planar {

/// One (key, row id) pair of an index's sorted key list, ordered
/// lexicographically by (key, id).
struct SortEntry {
  double key;
  uint32_t id;

  friend auto operator<=>(const SortEntry&, const SortEntry&) = default;
};

/// Entries below this count are sorted serially regardless of `threads`;
/// shard spawn/merge overhead exceeds the sort itself.
inline constexpr size_t kParallelSortMinEntries = 1u << 14;

/// Sorts `entries` ascending by (key, id). `threads` follows the
/// ThreadPool::ParallelFor width convention: 1 = serial (the default), 0 = hardware
/// concurrency, n = at most n threads. The result is identical to
/// std::sort for every thread count.
void SortEntries(std::vector<SortEntry>* entries, size_t threads = 1);

}  // namespace planar

#endif  // PLANAR_CORE_SORT_UTIL_H_
