// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/fold.h"
#include "core/scan.h"

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

/// Per-part tolerance split: the absolute budget divides evenly across
/// the index parts (per-part gaps sum, so the merged gap stays within
/// the original absolute budget) and the relative budget passes through
/// (each part reads it against its own scale; part scales sum to at most
/// the global scale, so the merged gap stays within relative * global
/// scale). The delta counts exactly and takes no share. One index part
/// keeps the whole budget (x / 1.0 == x).
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

/// Rebases one index part's answer to global row ids (part 0's offset is
/// 0: no pass). Ids keep the part's own order (the part-order rule, see
/// header). Count and aggregate answers carry no ids.
void ToGlobal(uint32_t offset, InequalityResult* result) {
  if (offset == 0) return;
  for (uint32_t& id : result->ids) id += offset;
}
void ToGlobal(uint32_t offset, TopKResult* result) {
  if (offset == 0) return;
  for (Neighbor& neighbor : result->neighbors) neighbor.id += offset;
}
void ToGlobal(uint32_t, CountResult*) {}
void ToGlobal(uint32_t, AggregateResult*) {}

/// The delta part of each read kind: the first `rows` delta rows,
/// scan-verified through the verify loop the index paths use (core/scan.h
/// ScanRows* over VerifyRows), as one more partial answer with global ids
/// from `first`. Every row is verified, and the answer is exact.
Result<InequalityResult> ScanDeltaInequality(const DeltaBuffer& delta,
                                             size_t rows, uint32_t first,
                                             const ScalarProductQuery& q,
                                             const Deadline& deadline) {
  InequalityResult part;
  PLANAR_RETURN_IF_ERROR(ScanRowsInequality(delta.data(), delta.dim(), rows,
                                            first, q, deadline, &part.ids)
                             .status());
  part.stats.num_points = part.stats.verified = rows;
  part.stats.result_size = part.ids.size();
  return part;
}

Result<CountResult> ScanDeltaCount(const DeltaBuffer& delta, size_t rows,
                                   const ScalarProductQuery& q,
                                   const Deadline& deadline) {
  PLANAR_ASSIGN_OR_RETURN(
      const size_t matched,
      ScanRowsCountInequality(delta.data(), delta.dim(), rows, q, deadline));
  CountResult part;
  part.lower = part.upper = part.estimate = matched;
  part.exact = true;
  part.stats.num_points = part.stats.verified = rows;
  part.stats.result_size = matched;
  return part;
}

Result<AggregateResult> ScanDeltaAggregate(const DeltaBuffer& delta,
                                           size_t rows, int payload_column,
                                           const ScalarProductQuery& q,
                                           const Deadline& deadline) {
  AggregateResult part;
  PLANAR_RETURN_IF_ERROR(ScanRowsAggregateInequality(
      delta.data(), delta.dim(), rows, payload_column, q, deadline,
      &part.count.estimate, &part.sum));
  part.sum_lower = part.sum_upper = part.sum;
  part.count.lower = part.count.upper = part.count.estimate;
  part.exact = part.count.exact = true;
  part.count.stats.num_points = part.count.stats.verified = rows;
  part.count.stats.result_size = part.count.estimate;
  return part;
}

Result<TopKResult> ScanDeltaTopK(const DeltaBuffer& delta, size_t rows,
                                 uint32_t first, const ScalarProductQuery& q,
                                 size_t k, const Deadline& deadline) {
  PLANAR_ASSIGN_OR_RETURN(
      std::vector<Neighbor> neighbors,
      MergeTopK(k, rows, [&](TopKBuffer* buffer) {
        return ScanRowsTopK(delta.data(), delta.dim(), rows, first, q,
                            deadline, buffer);
      }));
  TopKResult part;
  part.neighbors = std::move(neighbors);
  part.stats.num_points = part.stats.verified_intermediate = rows;
  return part;
}

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

/// Merges per-part statuses deterministically: the first (lowest-part)
/// non-deadline error wins — validation errors are part-independent, so
/// every index part reports the same one — and any deadline expiry
/// collapses to one canonical message, independent of which part(s)
/// happened to observe the expiry or were cancelled before starting.
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

/// Gathers the partial answers (rebased, in part order; the first
/// `index_parts` come from index parts, a trailing one from the delta)
/// into one. The merged status comes first; then `merge` folds the
/// answers and every part's stats are summed — result_size and
/// num_points equal the monolithic values, and index_used is the serving
/// index every index part chose, else -1 (the delta does not vote). A
/// lone part's answer passes through untouched.
template <typename T, typename Merge>
Result<T> Gather(std::vector<Result<T>>& partial, size_t index_parts,
                 const char* deadline_msg, const Merge& merge) {
  PLANAR_RETURN_IF_ERROR(MergeStatuses(partial, deadline_msg));
  if (partial.size() == 1) return std::move(partial[0]);
  T merged = merge(partial);
  auto& stats = StatsOf(merged);
  const int first = StatsOf(partial[0].value()).index_used;
  bool common_index = true;
  for (size_t p = 0; p < partial.size(); ++p) {
    AddStats(StatsOf(partial[p].value()), &stats);
    if (p < index_parts) {
      common_index &= StatsOf(partial[p].value()).index_used == first;
    }
  }
  stats.index_used = common_index ? first : -1;
  return merged;
}

/// Part-order id concatenation, appended onto part 0's vector.
InequalityResult ConcatIds(std::vector<Result<InequalityResult>>& partial) {
  size_t total = 0;
  for (const auto& part : partial) total += part.value().ids.size();
  InequalityResult merged;
  merged.ids = std::move(partial[0].value().ids);
  merged.ids.reserve(total);
  for (size_t p = 1; p < partial.size(); ++p) {
    const std::vector<uint32_t>& ids = partial[p].value().ids;
    merged.ids.insert(merged.ids.end(), ids.begin(), ids.end());
  }
  return merged;
}

CountResult SumCounts(std::vector<Result<CountResult>>& partial) {
  CountResult merged;
  merged.exact = true;
  for (const auto& part : partial) FoldCount(part.value(), &merged);
  return merged;
}

AggregateResult SumAggregates(std::vector<Result<AggregateResult>>& partial) {
  AggregateResult merged;
  merged.exact = true;
  merged.count.exact = true;
  for (const auto& part : partial) FoldAggregate(part.value(), &merged);
  return merged;
}

/// The global top-k is contained in the union of per-part top-ks, and
/// distances are computed from raw phi rows (index-independent), so
/// folding every part's candidates through the shared bounded merge
/// reproduces the monolithic result bit for bit.
TopKResult MergePartTopK(size_t k, std::vector<Result<TopKResult>>& partial) {
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

ShardedIndexSet::ShardedIndexSet(
    std::vector<std::shared_ptr<const PlanarIndexSet>> shards,
    std::vector<uint32_t> offsets, std::shared_ptr<const DeltaBuffer> delta,
    const ShardedIndexSetOptions& options)
    : shards_(std::move(shards)),
      offsets_(std::move(offsets)),
      delta_(std::move(delta)),
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
  std::vector<std::shared_ptr<const PlanarIndexSet>> parts;
  parts.reserve(sets.size());
  for (PlanarIndexSet& set : sets) {
    parts.push_back(std::make_shared<const PlanarIndexSet>(std::move(set)));
  }
  return ShardedIndexSet(std::move(parts), std::move(offsets), nullptr,
                         options);
}

ShardedIndexSet ShardedIndexSet::Epoch(
    std::shared_ptr<const PlanarIndexSet> base,
    std::shared_ptr<const DeltaBuffer> delta) {
  PLANAR_CHECK(base != nullptr && delta != nullptr);
  PLANAR_CHECK(delta->dim() == base->phi().dim());
  ShardedIndexSetOptions options;
  options.set_options = base->options();
  std::vector<uint32_t> offsets = {0, static_cast<uint32_t>(base->size())};
  std::vector<std::shared_ptr<const PlanarIndexSet>> parts = {std::move(base)};
  return ShardedIndexSet(std::move(parts), std::move(offsets),
                         std::move(delta), options);
}

template <typename T, typename Run, typename Scan, typename Merge>
Result<T> ShardedIndexSet::FanOut(const char* deadline_msg, const Run& run,
                                  const Scan& scan, const Merge& merge) const {
  // Snapshot the published delta length first: rows appended after this
  // point belong to a later read.
  const size_t delta_rows = delta_ == nullptr ? 0 : delta_->size();
  const size_t shards = shards_.size();
  std::vector<Result<T>> partial;
  partial.reserve(shards + (delta_rows > 0 ? 1 : 0));
  partial.resize(shards, Status::Internal("shard not executed"));
  // First-expiry cancellation: the first part whose verification loop
  // observes the deadline raises the flag; sibling parts still queued
  // behind busy workers short-circuit before touching their index.
  // Running parts poll the same wall-clock deadline themselves.
  std::atomic<bool> expired(false);
  RunShards(shards, options_.query_threads, [&](size_t s) {
    // relaxed-ok: advisory fast-skip flag — a part that misses a racing
    // store simply runs and expires on its own deadline poll; Gather
    // reads `partial` after the fan-out's join, which is the
    // authoritative synchronization.
    if (expired.load(std::memory_order_relaxed)) {
      partial[s] = Status::DeadlineExceeded(deadline_msg);
      return;
    }
    Result<T> result = run(*shards_[s]);
    if (result.ok()) {
      // relaxed-ok: monotone monitoring counter (see header); nothing
      // orders on it.
      rows_verified_[s].fetch_add(RowsVerified(result.value()),
                                  std::memory_order_relaxed);
      ToGlobal(offsets_[s], &result.value());
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      // relaxed-ok: see the flag's declaration above.
      expired.store(true, std::memory_order_relaxed);
    }
    partial[s] = std::move(result);
  });
  // The delta is scanned on the calling thread, and only once every index
  // part succeeded: the index parts validate the query, k and the payload
  // configuration that the scan requires. A pool handoff would cost more
  // than the few thousand rows a delta holds between merges.
  if (delta_rows > 0 &&
      std::all_of(partial.begin(), partial.end(),
                  [](const Result<T>& r) { return r.ok(); })) {
    partial.push_back(scan(*delta_, delta_rows, offsets_.back()));
  }
  return Gather(partial, shards, deadline_msg, merge);
}

Result<InequalityResult> ShardedIndexSet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  return FanOut<InequalityResult>(
      kInequalityDeadlineMsg,
      [&](const PlanarIndexSet& part) { return part.Inequality(q, deadline); },
      [&](const DeltaBuffer& delta, size_t rows, uint32_t first) {
        return ScanDeltaInequality(delta, rows, first, q, deadline);
      },
      ConcatIds);
}

Result<CountResult> ShardedIndexSet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance split = SplitTolerance(tolerance, shards_.size());
  return FanOut<CountResult>(
      kCountDeadlineMsg,
      [&](const PlanarIndexSet& part) {
        return part.CountInequality(q, split, deadline);
      },
      [&](const DeltaBuffer& delta, size_t rows, uint32_t) {
        return ScanDeltaCount(delta, rows, q, deadline);
      },
      SumCounts);
}

Result<AggregateResult> ShardedIndexSet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance split = SplitTolerance(tolerance, shards_.size());
  return FanOut<AggregateResult>(
      kAggregateDeadlineMsg,
      [&](const PlanarIndexSet& part) {
        return part.AggregateInequality(q, split, deadline);
      },
      [&](const DeltaBuffer& delta, size_t rows, uint32_t) {
        return ScanDeltaAggregate(
            delta, rows, options_.set_options.index_options.payload_column,
            q, deadline);
      },
      SumAggregates);
}

Result<TopKResult> ShardedIndexSet::TopK(const ScalarProductQuery& q,
                                         size_t k,
                                         const Deadline& deadline) const {
  return FanOut<TopKResult>(
      kTopKDeadlineMsg,
      [&](const PlanarIndexSet& part) { return part.TopK(q, k, deadline); },
      [&](const DeltaBuffer& delta, size_t rows, uint32_t first) {
        return ScanDeltaTopK(delta, rows, first, q, k, deadline);
      },
      [k](std::vector<Result<TopKResult>>& partial) {
        return MergePartTopK(k, partial);
      });
}

size_t ShardedIndexSet::MemoryUsage() const {
  size_t total = offsets_.capacity() * sizeof(uint32_t) +
                 shards_.size() * sizeof(std::atomic<uint64_t>);
  for (const auto& part : shards_) total += part->MemoryUsage();
  return total;
}

}  // namespace planar
