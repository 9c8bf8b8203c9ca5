// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Partitioned serving: one query answered over disjoint row parts and
// merged, the one partition-and-merge layer of the tree. A
// ShardedIndexSet holds S index parts — PlanarIndexSets over contiguous
// row ranges, each with its row offset — and at most one trailing delta:
// a DeltaBuffer of unmerged rows whose ids start where the index parts
// end. Two shapes exist, and only two:
//  * Build partitions the phi matrix into S row-range shards. The index
//    definitions are sampled once and shared, so every shard holds the
//    same normals (normal sampling is data-independent); the S x r index
//    builds run as one fan-out on the process-wide ThreadPool, and every
//    built byte is the same for any build width.
//  * Epoch pairs one base part, an installed catalog snapshot, with the
//    delta an ingest writer keeps appending to (ingest/ingest.h). Each
//    read sees the delta rows published when it started.
//
// Every read runs one fan-out (sharded.cc FanOut): snapshot the delta
// length, run the index parts (inline for one, else on the pool), and
// scan the delta on the calling thread once every index part succeeded
// — the index parts validate the query, k and the payload configuration
// that the delta scan (core/scan.h ScanRows*) assumes. One gather folds
// the parts with core/fold.h.
//
// Result contract (machine-checked by tests/sharded_test.cc,
// tests/ingest_test.cc and the bench_shard --smoke CI gate):
//  * Inequality ids are the exact match set of the monolithic set, in
//    part order: the parts' answers are concatenated in row order. Within
//    an index part the ids keep the order its PlanarIndexSet returns (the
//    serving index's key order, or ascending after a scan fallback),
//    rebased by the part's row offset; delta ids are ascending. Nothing
//    is sorted: the monolithic set's own order depends on which index
//    served, so no order short of a sort is shared by every shard count,
//    and a sort would cost every answer a pass over its ids.
//  * TopK is bit-identical to the monolithic set — same neighbors, same
//    distances, same order. Distances are computed from raw phi rows
//    (independent of the serving index), and the merge folds every
//    part's candidates through the same canonical (distance, id)
//    TopKBuffer the monolithic path uses.
//  * COUNT and SUM bounds are per-part sums. The absolute tolerance is
//    split evenly across the index parts; the delta is counted exactly.
//  * Merged QueryStats are per-part sums: result_size and num_points
//    equal the monolithic values, and accepted_directly +
//    rejected_directly + verified == num_points still holds; the split
//    among the three reflects the pruning each part achieved (the delta
//    verifies every row). index_used is the serving index common to the
//    index parts, else -1; the delta does not vote.
//  * For a fixed shard count, results are bit-identical across worker
//    counts (including serial) and across repeated runs.
//
// Deadlines fan out per part: every index part polls the query's deadline
// at verification-block granularity, and the first to observe expiry
// raises a shared flag that cancels sibling parts still queued behind
// busy workers before they start. Any expiry fails the whole query with
// one canonical "sharded <kind> query exceeded its deadline", epochs
// included.

#ifndef PLANAR_CORE_SHARDED_H_
#define PLANAR_CORE_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/delta_buffer.h"
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

/// S index parts over contiguous row ranges, plus at most one trailing
/// delta, queried scatter-gather (see the file header). Query methods
/// are const and thread-safe (per-part rows-verified counters are
/// atomic; the delta is read up to the length each read snapshots).
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

  /// One ingest epoch: `base` as the one index part and `delta` as the
  /// tail, whose row j has global id base->size() + j. Both are shared,
  /// not copied: the base stays the installed catalog snapshot, and rows
  /// the writer publishes later are seen by later reads.
  static ShardedIndexSet Epoch(std::shared_ptr<const PlanarIndexSet> base,
                               std::shared_ptr<const DeltaBuffer> delta);

  /// Problem 1 fanned across the parts; ids in part order (see the file
  /// header for the full result contract).
  Result<InequalityResult> Inequality(
      const ScalarProductQuery& q,
      const Deadline& deadline = Deadline::Infinite()) const;

  /// COUNT fanned across the parts: per-part [lower, upper] bounds sum
  /// to the global bounds (the parts partition the rows, so the sums are
  /// bit-identical to the monolithic bounds for the same serving index
  /// definitions). Each index part refines independently against a
  /// tolerance split of {absolute / num_shards(), relative}, and the
  /// delta counts exactly, so the merged gap is at most absolute +
  /// relative * n; at tolerance 0 every part counts exactly and the
  /// merged count equals the monolithic exact count.
  Result<CountResult> CountInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// SUM/AVG fanned across the parts, same merge and tolerance-split
  /// rules as CountInequality (the absolute tolerance splits evenly; the
  /// relative tolerance reads each index part's own total absolute
  /// payload; the delta sums exactly).
  Result<AggregateResult> AggregateInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// Problem 2: per-part top-k merged through the canonical
  /// (distance, id) buffer — bit-identical to the monolithic set.
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k,
                          const Deadline& deadline = Deadline::Infinite()) const;

  /// Number of index parts (an epoch has one; its delta is not counted).
  size_t num_shards() const { return shards_.size(); }
  /// Total rows across every part: for an epoch, the index rows plus the
  /// delta rows published so far.
  size_t size() const {
    return offsets_.back() + (delta_ == nullptr ? 0 : delta_->size());
  }
  /// The s-th index part's set.
  const PlanarIndexSet& shard(size_t s) const { return *shards_[s]; }
  /// First global row id of index part s (shard_offset(num_shards()) is
  /// the delta's first id).
  uint32_t shard_offset(size_t s) const { return offsets_[s]; }
  /// Cumulative rows verified (|II| evaluations) by index part s across
  /// every query served so far — the per-shard load-balance signal
  /// surfaced by engine metrics.
  uint64_t shard_rows_verified(size_t s) const {
    // relaxed-ok: monotone monitoring counter read for reporting;
    // nothing orders on it.
    return rows_verified_[s].load(std::memory_order_relaxed);
  }

  /// The options this set was built with (shards resolved to the actual
  /// count; an epoch carries its base's set options).
  const ShardedIndexSetOptions& options() const { return options_; }

  /// Heap footprint of every index part, in bytes.
  size_t MemoryUsage() const;

 private:
  ShardedIndexSet(std::vector<std::shared_ptr<const PlanarIndexSet>> shards,
                  std::vector<uint32_t> offsets,
                  std::shared_ptr<const DeltaBuffer> delta,
                  const ShardedIndexSetOptions& options);

  /// The scatter-gather body every read kind shares: runs `run(part)` on
  /// every index part, then `scan(delta, rows, first_id)` over the
  /// snapshotted delta rows, accounts rows verified, rebases ids to
  /// global ones, and gathers the partial answers through `merge` under
  /// one canonical `deadline_msg` (see sharded.cc).
  template <typename T, typename Run, typename Scan, typename Merge>
  Result<T> FanOut(const char* deadline_msg, const Run& run, const Scan& scan,
                   const Merge& merge) const;

  std::vector<std::shared_ptr<const PlanarIndexSet>> shards_;
  /// Index part row offsets, size num_shards() + 1; part s covers global
  /// rows [offsets_[s], offsets_[s + 1]), and the delta starts at
  /// offsets_.back().
  std::vector<uint32_t> offsets_;
  /// The unmerged tail of an epoch; null for row-range shards.
  std::shared_ptr<const DeltaBuffer> delta_;
  ShardedIndexSetOptions options_;
  /// One cumulative rows-verified counter per index part.
  std::unique_ptr<std::atomic<uint64_t>[]> rows_verified_;
};

}  // namespace planar

#endif  // PLANAR_CORE_SHARDED_H_
