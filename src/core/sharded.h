// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Shard-per-core scatter-gather serving. A ShardedIndexSet partitions
// the phi matrix into S contiguous row-range shards, builds one
// PlanarIndexSet per shard over its slice (the index definitions are
// sampled once and shared, so every shard holds the same normals —
// normal sampling is data-independent; the S x r index builds run as
// one fan-out on the process-wide ThreadPool, and every built byte is
// the same for any build width), and fans each query across the shards
// on the same pool, merging per-shard results in shard order with row
// ids rebased by the shard's row offset.
//
// Result contract (machine-checked by tests/sharded_test.cc and the
// bench_shard --smoke CI gate):
//  * Inequality ids are the exact match set of the monolithic set, in
//    canonical ascending-id order. (Each shard sorts its local ids with
//    SortIds — a linear radix sort bounded by the shard's row count,
//    bit-identical to std::sort — then rebases them; shards cover
//    disjoint ascending row ranges, so shard-order concatenation is
//    globally sorted. The monolithic path emits ids in serving-index
//    rank order, which depends on which index served — per-shard
//    selection is independent, so rank order is not preservable across
//    shard counts; ascending-id is the one order every shard count
//    agrees on.)
//  * TopK is bit-identical to the monolithic set — same neighbors, same
//    distances, same order. Distances are computed from raw phi rows
//    (independent of the serving index), and the merge folds every
//    shard's candidates through the same canonical (distance, id)
//    TopKBuffer the monolithic path uses.
//  * Merged QueryStats are per-shard sums: result_size and num_points
//    equal the monolithic values, and accepted_directly +
//    rejected_directly + verified == num_points still holds; the split
//    among the three reflects the pruning each shard's own serving
//    index achieved. index_used is the common serving index when every
//    shard chose the same one, else -1.
//  * For a fixed shard count, results are bit-identical across worker
//    counts (including serial) and across repeated runs.
//
// Deadlines fan out per shard: every shard polls the query's deadline at
// verification-block granularity, and the first shard to observe expiry
// raises a shared flag that cancels sibling shards still queued behind
// busy workers before they start. Any expiry fails the whole query with
// one canonical kDeadlineExceeded.

#ifndef PLANAR_CORE_SHARDED_H_
#define PLANAR_CORE_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/index_set.h"

namespace planar {

/// Options for building a ShardedIndexSet.
struct ShardedIndexSetOptions {
  /// Row-range shards to partition into (0 = one per hardware core).
  /// Always clamped so every shard holds at least min_rows_per_shard
  /// rows (and never below 1 shard).
  size_t shards = 0;
  /// Shard-count clamp: fanning out pays merge and scheduling overhead,
  /// so tiny sets stay monolithic. Set to 1 to take `shards` literally
  /// (tests do, to exercise many-shard merges on small fixtures).
  size_t min_rows_per_shard = 4096;
  /// Worker width per query fan-out (0 = hardware concurrency). The
  /// calling thread participates; results do not depend on this value.
  size_t query_threads = 0;
  /// Options of every per-shard PlanarIndexSet. Build samples the index
  /// definitions once from these and builds every shard's indices in one
  /// flat fan-out across set_options.build_threads (the one build width:
  /// default all cores, serial below kParallelBuildMinRows rows in all).
  IndexSetOptions set_options;
};

/// S contiguous row-range shards, each a PlanarIndexSet over its slice
/// of phi, queried scatter-gather. Query methods are const and
/// thread-safe (per-shard rows-verified counters are atomic).
class ShardedIndexSet {
 public:
  ShardedIndexSet(ShardedIndexSet&&) = default;
  ShardedIndexSet& operator=(ShardedIndexSet&&) = default;
  ShardedIndexSet(const ShardedIndexSet&) = delete;
  ShardedIndexSet& operator=(const ShardedIndexSet&) = delete;

  /// Partitions `phi` into near-equal contiguous row ranges and builds
  /// one PlanarIndexSet per range, all from the definitions that
  /// PlanarIndexSet::SampleDefinitions draws once, in one
  /// PlanarIndexSet::BuildEach. Takes ownership of the matrix (rows are
  /// moved into per-shard matrices; the set does not keep a monolithic
  /// copy).
  static Result<ShardedIndexSet> Build(
      PhiMatrix phi, const std::vector<ParameterDomain>& domains,
      const ShardedIndexSetOptions& options = ShardedIndexSetOptions());

  /// Problem 1 fanned across shards; ids in ascending order (see file
  /// header for the full result contract).
  Result<InequalityResult> Inequality(
      const ScalarProductQuery& q,
      const Deadline& deadline = Deadline::Infinite()) const;

  /// COUNT fanned across shards: per-shard [lower, upper] bounds sum to
  /// the global bounds (shards partition the rows, so the sums are
  /// bit-identical to the monolithic bounds for the same serving index
  /// definitions). Each shard refines independently against a tolerance
  /// split of {absolute / num_shards(), relative}, so the merged gap is
  /// at most absolute + relative * n; at tolerance 0 every shard counts
  /// exactly and the merged count equals the monolithic exact count.
  Result<CountResult> CountInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// SUM/AVG fanned across shards, same merge and tolerance-split rules
  /// as CountInequality (the absolute tolerance splits evenly; the
  /// relative tolerance reads each shard's own total absolute payload,
  /// which sums to the global one).
  Result<AggregateResult> AggregateInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// Problem 2: per-shard top-k merged through the canonical
  /// (distance, id) buffer — bit-identical to the monolithic set.
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k,
                          const Deadline& deadline = Deadline::Infinite()) const;

  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }
  /// Total rows across all shards.
  size_t size() const { return offsets_.back(); }
  /// The s-th shard's set.
  const PlanarIndexSet& shard(size_t s) const { return shards_[s]; }
  /// First global row id of shard s (offset(num_shards()) == size()).
  uint32_t shard_offset(size_t s) const { return offsets_[s]; }
  /// Cumulative rows verified (|II| evaluations) by shard s across every
  /// query served so far — the per-shard load-balance signal surfaced by
  /// engine metrics.
  uint64_t shard_rows_verified(size_t s) const {
    // relaxed-ok: monotone monitoring counter read for reporting;
    // nothing orders on it.
    return rows_verified_[s].load(std::memory_order_relaxed);
  }

  /// The options this set was built with (shards resolved to the actual
  /// count).
  const ShardedIndexSetOptions& options() const { return options_; }

  /// Heap footprint of every shard, in bytes.
  size_t MemoryUsage() const;

 private:
  ShardedIndexSet(std::vector<PlanarIndexSet> shards,
                  std::vector<uint32_t> offsets,
                  const ShardedIndexSetOptions& options);

  /// The scatter-gather body every single-query kind shares: runs
  /// `run(shard)` on every shard (inline for one shard, else on the
  /// pool), accounts rows verified, rebases ids to global ones, and
  /// gathers the partial answers through `merge` under one canonical
  /// `deadline_msg` (see sharded.cc).
  template <typename T, typename Run, typename Merge>
  Result<T> FanOut(const char* deadline_msg, const Run& run,
                   const Merge& merge) const;

  std::vector<PlanarIndexSet> shards_;
  /// Shard row offsets, size num_shards() + 1; shard s covers global
  /// rows [offsets_[s], offsets_[s + 1]).
  std::vector<uint32_t> offsets_;
  ShardedIndexSetOptions options_;
  /// One cumulative rows-verified counter per shard.
  std::unique_ptr<std::atomic<uint64_t>[]> rows_verified_;
};

}  // namespace planar

#endif  // PLANAR_CORE_SHARDED_H_
