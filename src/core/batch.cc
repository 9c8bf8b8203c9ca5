// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// PlanarIndexSet::BatchInequality: cross-query batched execution.
//
// Per call:
//   1. Plan. Each query is normalized and assigned its best index with
//      the existing Section-5.1 selectors, which also return its plan on
//      that index (SI/LI/II rank boundaries); the serial path's
//      scan-fallback rule routes too-wide intervals to the scan group.
//      Degenerate queries and single-query groups are served from their
//      plan by the serial code path — a batch of one costs exactly what
//      Inequality() costs.
//   2. Per index with >= 2 queries: each query's accept region is emitted
//      outright (identical order to serial), then the non-empty
//      intermediate intervals are sorted by begin rank and overlapping
//      ranges are merged. Every merged range is streamed exactly once in
//      kernels::kBlockRows blocks through dot_block_many — one residual
//      matrix per block covering every query whose interval overlaps it —
//      and CompressAcceptMany scatters the accepted ids into the
//      per-query result tails without per-row branches.
//   3. Queries with no usable index (or fallen back) form one more group,
//      the scan group, streamed by the same loop: its ids are row ids and
//      every interval is the full row range [0, n).
//
// Determinism: a query's intermediate interval is one contiguous rank
// range, so it is wholly contained in exactly one merged range; blocks
// advance in ascending rank order and each block appends a query's
// accepted sub-slice in rank order, so the per-query id sequence equals
// the serial path's exactly. The residuals come from the same kernels
// with the same per-(query, row) summation order (kernels.h determinism
// contract), so every accept decision — and therefore every result — is
// bit-identical to the serial path on both dispatch backends.
//
// Deadlines cancel cooperatively at block granularity, matching the
// serial cadence of one poll per verification block: an expired query is
// answered kDeadlineExceeded and drops out of the active set; the rest of
// the batch is unaffected. As in the serial path, a query whose
// intermediate interval is empty never observes its deadline.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/batch.h"
#include "core/index_set.h"
#include "core/kernels/kernels.h"

namespace planar {

namespace {

using kernels::kBlockRows;

// A coalesced rank range [begin, end) covering the sorted interval list
// entries [first, last).
struct MergedRange {
  size_t begin = 0;
  size_t end = 0;
  size_t first = 0;
  size_t last = 0;
};

// Per-block kernel argument arrays, sized once to the maximum possible
// active-query count of the group they serve.
struct BlockArgs {
  std::vector<const double*> q_ptrs;
  std::vector<double> biases;
  std::vector<size_t> slice_begin;
  std::vector<size_t> slice_end;
  std::vector<size_t> old_size;
  std::vector<size_t> kept;
  std::vector<uint32_t*> outs;
  std::unique_ptr<bool[]> less_equal;
  std::vector<double> residuals;

  explicit BlockArgs(size_t max_queries)
      : q_ptrs(max_queries),
        biases(max_queries),
        slice_begin(max_queries),
        slice_end(max_queries),
        old_size(max_queries),
        kept(max_queries),
        outs(max_queries),
        less_equal(new bool[max_queries]),
        residuals(max_queries * kBlockRows) {}
};

}  // namespace

std::vector<Result<InequalityResult>> PlanarIndexSet::BatchInequality(
    std::span<const ScalarProductQuery> queries,
    std::span<const Deadline> deadlines, BatchExecStats* exec_stats) const {
  const size_t m = queries.size();
  PLANAR_CHECK(deadlines.empty() || deadlines.size() == m);
  BatchExecStats stats;
  stats.queries = m;

  // Every slot is overwritten exactly once below; the placeholder only
  // exists because Result has no default state.
  std::vector<Result<InequalityResult>> results;
  results.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    results.emplace_back(Status::Internal("batch slot not executed"));
  }
  if (m == 0) {
    if (exec_stats != nullptr) *exec_stats = stats;
    return results;
  }

  const Deadline infinite = Deadline::Infinite();
  const auto deadline_of = [&](size_t slot) -> const Deadline& {
    return deadlines.empty() ? infinite : deadlines[slot];
  };

  const size_t n = phi_->size();
  const size_t dim = phi_->dim();
  const kernels::DotOps& ops = kernels::Ops();

  // One non-degenerate index-served query: its position in the caller's
  // span and its plan, whose intermediate interval is [begin, end) in
  // rank space.
  struct IntervalQuery {
    size_t slot = 0;
    PlanarIndex::Plan plan;

    size_t begin() const { return plan.intervals.smaller_end; }
    size_t end() const { return plan.intervals.larger_begin; }
  };

  // The serial path, served from the query's plan on index `best`.
  std::vector<NormalizedQuery> norms;
  const auto serve_alone = [&](size_t slot, size_t best,
                               const PlanarIndex::Plan& plan) {
    Result<InequalityResult> r =
        indices_[best].RunInequality(norms[slot], plan, deadline_of(slot));
    if (r.ok()) r->stats.index_used = static_cast<int>(best);
    results[slot] = std::move(r);
  };

  // ---- Plan: route every query to an index group or the scan group,
  // replicating the serial Inequality() decision sequence exactly. The
  // scan group comes last; its "ranks" are row ids and every interval is
  // [0, n).
  norms.reserve(m);
  const size_t scan_group = indices_.size();
  std::vector<std::vector<IntervalQuery>> groups(indices_.size() + 1);
  PlanarIndex::Plan scan_plan;
  scan_plan.intervals.larger_begin = n;
  for (size_t qi = 0; qi < m; ++qi) {
    norms.push_back(NormalizedQuery::From(queries[qi]));
    const NormalizedQuery& norm = norms.back();
    const Status dim_ok = CheckQueryDim(queries[qi]);
    if (!dim_ok.ok()) {
      results[qi] = dim_ok;
      continue;
    }
    const Selection best = Select(norm);
    if (best.index < 0 || PrefersScan(best.plan.intervals)) {
      groups[scan_group].push_back({qi, scan_plan});
      continue;
    }
    if (norm.IsDegenerate()) {
      serve_alone(qi, static_cast<size_t>(best.index), best.plan);
      continue;
    }
    groups[static_cast<size_t>(best.index)].push_back({qi, best.plan});
  }

  // ---- Groups: every index group, then the scan group.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const std::vector<IntervalQuery>& group = groups[gi];
    if (group.empty()) continue;
    const bool scan = gi == scan_group;
    const PlanarIndex* index = scan ? nullptr : &indices_[gi];
    if (scan) {
      stats.scan_queries = group.size();
    } else {
      ++stats.index_groups;
    }

    if (group.size() == 1) {
      // Nothing to share: the serial path is exactly right, and keeps a
      // batch of one at serial latency.
      const size_t slot = group[0].slot;
      const size_t ii = group[0].end() - group[0].begin();
      if (scan) {
        results[slot] = ScanInequality(*phi_, queries[slot], deadline_of(slot));
      } else {
        serve_alone(slot, gi, group[0].plan);
      }
      stats.rows_demanded += ii;
      stats.rows_streamed += ii;
      if (ii > 0) ++stats.merged_ranges;
      continue;
    }

    // Accept regions first (same emission order as serial), reserving the
    // worst case so the block appends below never reallocate. A scan
    // query accepts nothing outright and verifies every row.
    for (const IntervalQuery& iq : group) {
      InequalityResult r;
      if (scan) {
        r.stats.num_points = n;
        r.stats.verified = n;
        r.ids.reserve(n);
      } else {
        r = index->AcceptRegion(index->Split(norms[iq.slot], iq.plan).value());
      }
      r.stats.index_used = scan ? -1 : static_cast<int>(gi);
      results[iq.slot] = std::move(r);
      stats.rows_demanded += iq.end() - iq.begin();
    }

    // Coalesce: sort the non-empty intervals by begin rank and merge
    // every overlapping (or touching) run into one streamed range.
    std::vector<IntervalQuery> intervals;
    intervals.reserve(group.size());
    for (const IntervalQuery& iq : group) {
      if (iq.end() > iq.begin()) intervals.push_back(iq);
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const IntervalQuery& x, const IntervalQuery& y) {
                if (x.begin() != y.begin()) return x.begin() < y.begin();
                if (x.end() != y.end()) return x.end() < y.end();
                return x.slot < y.slot;
              });
    std::vector<MergedRange> ranges;
    for (size_t i = 0; i < intervals.size();) {
      MergedRange range{intervals[i].begin(), intervals[i].end(), i, i + 1};
      size_t j = i + 1;
      while (j < intervals.size() && intervals[j].begin() <= range.end) {
        range.end = std::max(range.end, intervals[j].end());
        ++j;
      }
      range.last = j;
      ranges.push_back(range);
      i = j;
    }
    stats.merged_ranges += ranges.size();

    // Stream each merged range once. Because every query's interval is
    // contiguous in rank space, a block's active set is a window over the
    // begin-sorted interval list.
    const char* const deadline_message =
        scan ? "sequential scan exceeded its deadline"
             : "inequality query exceeded its deadline during II "
               "verification";
    BlockArgs args(intervals.size());
    // A scan query verifies against the caller's original query, as
    // ScanInequality does (bit-identical residuals either way — the
    // normalization negates both sides).
    const auto bind = [&args](size_t ai, const auto& q) {
      args.q_ptrs[ai] = q.a.data();
      args.biases[ai] = -q.b;
      args.less_equal[ai] = q.cmp == Comparison::kLessEqual;
    };
    const uint32_t* rank_ids = scan ? nullptr : index->RankIds();
    uint32_t row_ids[kBlockRows];
    std::vector<size_t> active;
    active.reserve(intervals.size());
    for (const MergedRange& range : ranges) {
      stats.rows_streamed += range.end - range.begin;
      active.clear();
      size_t next = range.first;
      for (size_t r0 = range.begin; r0 < range.end; r0 += kBlockRows) {
        const size_t r1 = std::min(range.end, r0 + kBlockRows);
        while (next < range.last && intervals[next].begin() < r1) {
          active.push_back(next++);
        }
        // Retire finished intervals and poll deadlines — one poll per
        // (query, block), the cadence of the serial VerifyRows loop. The
        // batch walk is single-threaded, so the poll is a plain call on an
        // immutable Deadline — no atomic flag, and nothing to order.
        size_t na = 0;
        for (const size_t idx : active) {
          const IntervalQuery& iq = intervals[idx];
          if (iq.end() <= r0) continue;
          if (deadline_of(iq.slot).Expired()) {
            results[iq.slot] = Status::DeadlineExceeded(deadline_message);
            continue;
          }
          active[na++] = idx;
        }
        active.resize(na);
        if (na == 0) {
          if (next == range.last) break;
          continue;
        }

        const size_t blk = r1 - r0;
        if (scan) {
          for (size_t i = 0; i < blk; ++i) {
            row_ids[i] = static_cast<uint32_t>(r0 + i);
          }
        }
        const uint32_t* block_ids = scan ? row_ids : rank_ids + r0;
        for (size_t ai = 0; ai < na; ++ai) {
          const IntervalQuery& iq = intervals[active[ai]];
          if (scan) {
            bind(ai, queries[iq.slot]);
          } else {
            bind(ai, norms[iq.slot]);
          }
          args.slice_begin[ai] = std::max(iq.begin(), r0) - r0;
          args.slice_end[ai] = std::min(iq.end(), r1) - r0;
          std::vector<uint32_t>& out_ids = results[iq.slot]->ids;
          args.old_size[ai] = out_ids.size();
          out_ids.resize(args.old_size[ai] +
                         (args.slice_end[ai] - args.slice_begin[ai]));
          args.outs[ai] = out_ids.data() + args.old_size[ai];
        }
        ops.dot_block_many(args.q_ptrs.data(), args.biases.data(), na, dim,
                           phi_->data(), dim, block_ids, blk,
                           args.residuals.data(), kBlockRows);
        kernels::CompressAcceptMany(
            args.residuals.data(), kBlockRows, na, block_ids,
            args.slice_begin.data(), args.slice_end.data(),
            args.less_equal.get(), args.outs.data(), args.kept.data());
        for (size_t ai = 0; ai < na; ++ai) {
          const IntervalQuery& iq = intervals[active[ai]];
          results[iq.slot]->ids.resize(args.old_size[ai] + args.kept[ai]);
        }
      }
    }
    for (const IntervalQuery& iq : group) {
      if (results[iq.slot].ok()) {
        results[iq.slot]->stats.result_size = results[iq.slot]->ids.size();
      }
    }
  }

  if (exec_stats != nullptr) *exec_stats = stats;
  return results;
}

}  // namespace planar
