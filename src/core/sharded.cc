// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/fold.h"
#include "core/sort_util.h"

namespace planar {

namespace {

constexpr char kInequalityDeadlineMsg[] =
    "sharded inequality query exceeded its deadline";
constexpr char kTopKDeadlineMsg[] =
    "sharded top-k query exceeded its deadline";
constexpr char kCountDeadlineMsg[] =
    "sharded count query exceeded its deadline";
constexpr char kAggregateDeadlineMsg[] =
    "sharded aggregate query exceeded its deadline";

/// Per-shard tolerance split: the absolute budget divides evenly across
/// shards (per-shard gaps sum, so the merged gap stays within the
/// original absolute budget) and the relative budget passes through
/// (each shard reads it against its own scale; shard scales sum to the
/// global scale, so the merged gap stays within relative * global
/// scale). One shard keeps the whole budget (x / 1.0 == x).
CountTolerance SplitTolerance(const CountTolerance& tolerance, size_t shards) {
  CountTolerance split = tolerance;
  split.absolute = tolerance.absolute / static_cast<double>(shards);
  return split;
}

/// Runs task(s) for every shard: inline for a single shard (no pool
/// handoff), else on the process-wide pool across up to `width` threads.
template <typename Task>
void RunShards(size_t shards, size_t width, const Task& task) {
  if (shards == 1) {
    task(0);
    return;
  }
  ThreadPool::Shared().ParallelFor(shards, task, width);
}

/// Rebases one shard's answer to global row ids (shard 0's offset is 0:
/// no pass). Inequality ids also take the canonical ascending order (see
/// header): the monolithic rank order is index-dependent and shards
/// select independently, so ascending-id is the one merge order every
/// shard count agrees on. A shard's local ids lie below its row count,
/// so the order costs one linear radix sort, not a comparison sort.
/// Count and aggregate answers carry no ids.
void ToGlobal(uint32_t offset, uint32_t rows, InequalityResult* result) {
  SortIds(&result->ids, rows);
  if (offset != 0) {
    for (uint32_t& id : result->ids) id += offset;
  }
}
void ToGlobal(uint32_t offset, uint32_t, TopKResult* result) {
  if (offset == 0) return;
  for (Neighbor& neighbor : result->neighbors) neighbor.id += offset;
}
void ToGlobal(uint32_t, uint32_t, CountResult*) {}
void ToGlobal(uint32_t, uint32_t, AggregateResult*) {}

void AddStats(const QueryStats& part, QueryStats* merged) {
  merged->num_points += part.num_points;
  merged->accepted_directly += part.accepted_directly;
  merged->rejected_directly += part.rejected_directly;
  merged->verified += part.verified;
  merged->result_size += part.result_size;
}
void AddStats(const TopKStats& part, TopKStats* merged) {
  merged->num_points += part.num_points;
  merged->verified_intermediate += part.verified_intermediate;
  merged->scanned_accept_region += part.scanned_accept_region;
  merged->early_terminated |= part.early_terminated;
}

/// Merges per-shard statuses deterministically: the first (lowest-shard)
/// non-deadline error wins — validation errors are shard-independent, so
/// every shard reports the same one — and any deadline expiry collapses
/// to one canonical message, independent of which shard(s) happened to
/// observe the expiry or were cancelled before starting.
template <typename T>
Status MergeStatuses(const std::vector<Result<T>>& partial,
                     const char* deadline_msg) {
  bool any_deadline = false;
  for (const Result<T>& part : partial) {
    const Status& status = part.status();
    if (status.ok()) continue;
    if (status.code() != StatusCode::kDeadlineExceeded) return status;
    any_deadline = true;
  }
  if (any_deadline) return Status::DeadlineExceeded(deadline_msg);
  return Status::OK();
}

/// Gathers per-shard answers (rebased, in shard order) into one. The
/// merged status comes first; then `merge` folds the answers and the
/// shards' stats are summed — result_size and num_points equal the
/// monolithic values, and index_used is the serving index every shard
/// chose, else -1. A lone shard's answer passes through untouched.
template <typename T, typename Merge>
Result<T> Gather(std::vector<Result<T>>& partial, const char* deadline_msg,
                 const Merge& merge) {
  PLANAR_RETURN_IF_ERROR(MergeStatuses(partial, deadline_msg));
  if (partial.size() == 1) return std::move(partial[0]);
  T merged = merge(partial);
  auto& stats = StatsOf(merged);
  const int first = StatsOf(partial[0].value()).index_used;
  bool common_index = true;
  for (Result<T>& part : partial) {
    AddStats(StatsOf(part.value()), &stats);
    common_index &= StatsOf(part.value()).index_used == first;
  }
  stats.index_used = common_index ? first : -1;
  return merged;
}

/// Shard-order id concatenation: globally ascending, since each shard's
/// ids are sorted and the shards cover disjoint ascending row ranges.
InequalityResult ConcatIds(
    const std::vector<Result<InequalityResult>>& partial) {
  InequalityResult merged;
  size_t total = 0;
  for (const auto& part : partial) total += part.value().ids.size();
  merged.ids.reserve(total);
  for (const auto& part : partial) {
    const std::vector<uint32_t>& ids = part.value().ids;
    merged.ids.insert(merged.ids.end(), ids.begin(), ids.end());
  }
  return merged;
}

CountResult SumCounts(const std::vector<Result<CountResult>>& partial) {
  CountResult merged;
  merged.exact = true;
  for (const auto& part : partial) FoldCount(part.value(), &merged);
  return merged;
}

AggregateResult SumAggregates(
    const std::vector<Result<AggregateResult>>& partial) {
  AggregateResult merged;
  merged.exact = true;
  merged.count.exact = true;
  for (const auto& part : partial) FoldAggregate(part.value(), &merged);
  return merged;
}

/// The global top-k is contained in the union of per-shard top-ks, and
/// distances are computed from raw phi rows (index-independent), so
/// folding every shard's candidates through the shared bounded merge
/// reproduces the monolithic result bit for bit.
TopKResult MergeShardTopK(size_t k,
                          const std::vector<Result<TopKResult>>& partial) {
  size_t candidates = 0;
  for (const auto& part : partial) candidates += part.value().neighbors.size();
  Result<std::vector<Neighbor>> neighbors =
      MergeTopK(k, candidates, [&](TopKBuffer* buffer) {
        for (const auto& part : partial) {
          for (const Neighbor& n : part.value().neighbors) {
            buffer->Insert(n.id, n.distance);
          }
        }
        return Status::OK();
      });
  TopKResult merged;
  merged.neighbors = std::move(neighbors).value();
  return merged;
}

}  // namespace

ShardedIndexSet::ShardedIndexSet(std::vector<PlanarIndexSet> shards,
                                 std::vector<uint32_t> offsets,
                                 const ShardedIndexSetOptions& options)
    : shards_(std::move(shards)),
      offsets_(std::move(offsets)),
      options_(options),
      rows_verified_(
          std::make_unique<std::atomic<uint64_t>[]>(shards_.size())) {
  options_.shards = shards_.size();
}

Result<ShardedIndexSet> ShardedIndexSet::Build(
    PhiMatrix phi, const std::vector<ParameterDomain>& domains,
    const ShardedIndexSetOptions& options) {
  // Normal sampling is data-independent: sampled once, the definitions
  // serve every shard, so each shard differs from its siblings only in
  // its rows.
  PLANAR_ASSIGN_OR_RETURN(
      std::vector<PlanarIndexSet::IndexDefinition> definitions,
      PlanarIndexSet::SampleDefinitions(phi, domains, options.set_options));
  const size_t n = phi.size();
  size_t shards = options.shards;
  if (shards == 0) {
    shards = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  const size_t min_rows = std::max<size_t>(1, options.min_rows_per_shard);
  shards = std::min(shards, std::max<size_t>(1, n / min_rows));
  shards = std::min(shards, n);

  // Contiguous near-equal partition: the first n % shards slices get one
  // extra row, so global row order is preserved and offsets are dense.
  std::vector<PhiMatrix> slices;
  slices.reserve(shards);
  std::vector<uint32_t> offsets(shards + 1, 0);
  const size_t base = n / shards;
  const size_t extra = n % shards;
  size_t row = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = base + (s < extra ? 1 : 0);
    PhiMatrix slice(phi.dim());
    slice.Reserve(count);
    for (size_t r = 0; r < count; ++r) slice.AppendRow(phi.row(row++));
    offsets[s + 1] = static_cast<uint32_t>(row);
    slices.push_back(std::move(slice));
  }
  PLANAR_CHECK(row == n);

  // Every shard's indices build in one flat fan-out across
  // set_options.build_threads.
  PLANAR_ASSIGN_OR_RETURN(std::vector<PlanarIndexSet> sets,
                          PlanarIndexSet::BuildEach(std::move(slices),
                                                    definitions,
                                                    options.set_options));
  return ShardedIndexSet(std::move(sets), std::move(offsets), options);
}

template <typename T, typename Run, typename Merge>
Result<T> ShardedIndexSet::FanOut(const char* deadline_msg, const Run& run,
                                  const Merge& merge) const {
  const size_t shards = shards_.size();
  std::vector<Result<T>> partial(shards,
                                 Status::Internal("shard not executed"));
  // First-expiry cancellation: the first shard whose verification loop
  // observes the deadline raises the flag; sibling shards still queued
  // behind busy workers short-circuit before touching their index.
  // Running shards poll the same wall-clock deadline themselves.
  std::atomic<bool> expired(false);
  RunShards(shards, options_.query_threads, [&](size_t s) {
    // relaxed-ok: advisory fast-skip flag — a shard that misses a racing
    // store simply runs and expires on its own deadline poll; Gather
    // reads `partial` after the fan-out's join, which is the
    // authoritative synchronization.
    if (expired.load(std::memory_order_relaxed)) {
      partial[s] = Status::DeadlineExceeded(deadline_msg);
      return;
    }
    Result<T> result = run(shards_[s]);
    if (result.ok()) {
      // relaxed-ok: monotone monitoring counter (see header); nothing
      // orders on it.
      rows_verified_[s].fetch_add(RowsVerified(result.value()),
                                  std::memory_order_relaxed);
      ToGlobal(offsets_[s], offsets_[s + 1] - offsets_[s], &result.value());
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      // relaxed-ok: see the flag's declaration above.
      expired.store(true, std::memory_order_relaxed);
    }
    partial[s] = std::move(result);
  });
  return Gather(partial, deadline_msg, merge);
}

Result<InequalityResult> ShardedIndexSet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  return FanOut<InequalityResult>(
      kInequalityDeadlineMsg,
      [&](const PlanarIndexSet& shard) {
        return shard.Inequality(q, deadline);
      },
      ConcatIds);
}

Result<CountResult> ShardedIndexSet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance split = SplitTolerance(tolerance, shards_.size());
  return FanOut<CountResult>(
      kCountDeadlineMsg,
      [&](const PlanarIndexSet& shard) {
        return shard.CountInequality(q, split, deadline);
      },
      SumCounts);
}

Result<AggregateResult> ShardedIndexSet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance split = SplitTolerance(tolerance, shards_.size());
  return FanOut<AggregateResult>(
      kAggregateDeadlineMsg,
      [&](const PlanarIndexSet& shard) {
        return shard.AggregateInequality(q, split, deadline);
      },
      SumAggregates);
}

Result<TopKResult> ShardedIndexSet::TopK(const ScalarProductQuery& q,
                                         size_t k,
                                         const Deadline& deadline) const {
  return FanOut<TopKResult>(
      kTopKDeadlineMsg,
      [&](const PlanarIndexSet& shard) { return shard.TopK(q, k, deadline); },
      [k](const std::vector<Result<TopKResult>>& partial) {
        return MergeShardTopK(k, partial);
      });
}

std::vector<Result<InequalityResult>> ShardedIndexSet::BatchInequality(
    std::span<const ScalarProductQuery> queries,
    std::span<const Deadline> deadlines, BatchExecStats* exec_stats) const {
  const size_t shards = shards_.size();
  const size_t count = queries.size();
  if (exec_stats != nullptr) *exec_stats = BatchExecStats{};
  if (count == 0) return {};

  // The whole batch fans to every shard, so each shard's cross-query
  // coalescing applies within its slice; per query, the shards' answers
  // then gather exactly as a single query's do.
  std::vector<std::vector<Result<InequalityResult>>> partial(shards);
  std::vector<BatchExecStats> shard_stats(shards);
  RunShards(shards, options_.query_threads, [&](size_t s) {
    partial[s] =
        shards_[s].BatchInequality(queries, deadlines, &shard_stats[s]);
    uint64_t verified = 0;
    for (Result<InequalityResult>& result : partial[s]) {
      if (!result.ok()) continue;
      verified += RowsVerified(result.value());
      ToGlobal(offsets_[s], offsets_[s + 1] - offsets_[s], &result.value());
    }
    // relaxed-ok: monotone monitoring counter (see header); nothing
    // orders on it.
    rows_verified_[s].fetch_add(verified, std::memory_order_relaxed);
  });

  std::vector<Result<InequalityResult>> merged;
  merged.reserve(count);
  std::vector<Result<InequalityResult>> column;
  column.reserve(shards);
  for (size_t qi = 0; qi < count; ++qi) {
    column.clear();
    for (size_t s = 0; s < shards; ++s) {
      column.push_back(std::move(partial[s][qi]));
    }
    merged.push_back(Gather(column, kInequalityDeadlineMsg, ConcatIds));
  }
  if (exec_stats != nullptr) {
    // Per-shard sums; `queries` counts each query once. A query that
    // scan-served in k shards contributes k to scan_queries — the
    // fan-out really did run k scans.
    exec_stats->queries = count;
    for (const BatchExecStats& stats : shard_stats) {
      exec_stats->index_groups += stats.index_groups;
      exec_stats->scan_queries += stats.scan_queries;
      exec_stats->merged_ranges += stats.merged_ranges;
      exec_stats->rows_streamed += stats.rows_streamed;
      exec_stats->rows_demanded += stats.rows_demanded;
    }
  }
  return merged;
}

size_t ShardedIndexSet::MemoryUsage() const {
  size_t total = offsets_.capacity() * sizeof(uint32_t) +
                 shards_.size() * sizeof(std::atomic<uint64_t>);
  for (const PlanarIndexSet& shard : shards_) total += shard.MemoryUsage();
  return total;
}

}  // namespace planar
