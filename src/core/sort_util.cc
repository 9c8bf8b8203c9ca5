// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/sort_util.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace planar {

namespace {

using Entry = OrderStatisticBTree::Entry;

}  // namespace

void SortEntries(std::vector<Entry>* entries, size_t threads) {
  PLANAR_CHECK(entries != nullptr);
  const size_t n = entries->size();
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads == 1 || n < kParallelSortMinEntries) {
    std::sort(entries->begin(), entries->end());
    return;
  }

  // Shard bounds: contiguous, near-equal, every shard large enough that
  // std::sort dominates the spawn cost. The bounds depend on `threads`,
  // but the merged output does not (see header).
  const size_t max_shards = std::max<size_t>(1, n / (kParallelSortMinEntries / 4));
  const size_t shards = std::min(threads, max_shards);
  const size_t chunk = (n + shards - 1) / shards;
  std::vector<size_t> bounds;
  bounds.reserve(shards + 1);
  for (size_t b = 0; b < n; b += chunk) bounds.push_back(b);
  bounds.push_back(n);

  ThreadPool::Shared().ParallelFor(
      bounds.size() - 1,
      [&](size_t s) {
        std::sort(entries->begin() + static_cast<ptrdiff_t>(bounds[s]),
                  entries->begin() + static_cast<ptrdiff_t>(bounds[s + 1]));
      },
      threads);

  // Pairwise merge rounds, ping-ponging between the entry array and one
  // scratch buffer. Each round halves the run count; runs merge on
  // independent ranges, so rounds parallelize over run pairs. An odd
  // trailing run is copied through so the source of the next round is
  // always the destination buffer of this one.
  std::vector<Entry> scratch(n);
  Entry* src = entries->data();
  Entry* dst = scratch.data();
  while (bounds.size() > 2) {
    const size_t runs = bounds.size() - 1;
    const size_t pairs = runs / 2;
    ThreadPool::Shared().ParallelFor(
        pairs + (runs % 2),
        [&](size_t p) {
          const size_t lo = bounds[2 * p];
          if (p == pairs) {  // odd trailing run: copy through
            std::copy(src + lo, src + bounds[2 * p + 1], dst + lo);
            return;
          }
          const size_t mid = bounds[2 * p + 1];
          const size_t hi = bounds[2 * p + 2];
          std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo);
        },
        threads);
    std::vector<size_t> next;
    next.reserve(pairs + 2);
    for (size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (next.back() != n) next.push_back(n);
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != entries->data()) {
    std::copy(src, src + n, entries->data());
  }
}

}  // namespace planar
