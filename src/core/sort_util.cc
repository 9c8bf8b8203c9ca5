// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/sort_util.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace planar {

namespace {

/// Widest radix digit: 2048 four-byte buckets (8 KiB) stay L1-resident
/// while a pass scatters.
constexpr int kMaxDigitBits = 11;

}  // namespace

void SortEntries(std::vector<SortEntry>* entries, size_t threads) {
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
  std::vector<SortEntry> scratch(n);
  SortEntry* src = entries->data();
  SortEntry* dst = scratch.data();
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

void SortIds(std::vector<uint32_t>* ids, uint32_t bound) {
  PLANAR_CHECK(ids != nullptr);
  const size_t n = ids->size();
  if (n == 0) return;

  // Split the bits the bound needs into equal digits of at most
  // kMaxDigitBits: a 100k-row shard (17 bits) sorts in two 9-bit passes.
  PLANAR_CHECK(bound > 0 && n <= UINT32_MAX);
  const int bits = std::max(1, static_cast<int>(std::bit_width(bound - 1)));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint32_t mask = static_cast<uint32_t>(buckets - 1);

  // One read builds every pass's histogram (and the bound check).
  std::vector<uint32_t> counts(static_cast<size_t>(passes) * buckets, 0);
  uint32_t max_id = 0;
  for (const uint32_t id : *ids) {
    max_id = std::max(max_id, id);
    for (int p = 0; p < passes; ++p) {
      const uint32_t digit = (id >> (p * digit_bits)) & mask;
      ++counts[static_cast<size_t>(p) * buckets + digit];
    }
  }
  PLANAR_CHECK(max_id < bound);

  // Stable scatter per digit, least significant first, ping-ponging
  // between the ids and one scratch buffer. A pass whose digit is the
  // same for every id would only copy, so it is skipped.
  std::vector<uint32_t> scratch(n);
  std::vector<uint32_t>* src = ids;
  std::vector<uint32_t>* dst = &scratch;
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    uint32_t* offsets = counts.data() + static_cast<size_t>(p) * buckets;
    if (offsets[((*src)[0] >> shift) & mask] == n) continue;
    uint32_t next = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = next;
      next += count;
    }
    uint32_t* out = dst->data();
    for (const uint32_t id : *src) out[offsets[(id >> shift) & mask]++] = id;
    std::swap(src, dst);
  }
  if (src != ids) ids->swap(*src);
}

}  // namespace planar
