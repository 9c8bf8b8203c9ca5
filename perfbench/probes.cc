// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Per-layer probes of the traced run. For a sampled request the generator
// thread, after the engine answered, replays the request's query against
// each layer's public functions and times every call as a span:
//
//   index_set.select      PlanarIndexSet::SelectBestIndex
//   index_set.explain     PlanarIndexSet::Explain (scan-fallback decision)
//   planar_index.boundary PlanarIndex::ComputeIntervals on the chosen index
//   planar_index.inequality  PlanarIndex::Inequality (boundary + II verify)
//   index_set.inequality  PlanarIndexSet::Inequality
//   scan.inequality       ScanInequality over the same rows
//   ingest.inequality     IngestManager::Inequality (base + delta overlay)
//   sharded.fanout        ShardedIndexSet::Inequality / TopK
//   sharded.shard         the same call on one shard's set
//
// The spans are siblings under one "probe" root that carries the request
// id; derived quantities (verify = index inequality - boundary, overlay =
// ingest inequality - base inequality, merge = fan-out - slowest shard)
// are computed from them.

#include <algorithm>
#include <string>

#include "core/scan.h"
#include "perfbench/perfbench.h"

namespace planar {
namespace perfbench {
namespace {

/// Sub-microsecond calls are timed over this many back-to-back repeats.
constexpr int kShortCallRepeats = 8;

template <typename Fn>
double TimedMillis(TraceBuffer* trace, uint64_t request, const char* name,
                   int64_t parent, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  trace->Add(request, name, parent, start, end);
  return static_cast<double>(end - start) * 1e-6;
}

void ProbeSet(const System& system, const TargetSpec& target, const Op& op,
              uint64_t request, int64_t root, TraceBuffer* trace,
              ProbeSamples* out) {
  const Catalog::SetPtr set = system.catalog->Find(target.name);
  const ScalarProductQuery& q = op.query;
  const NormalizedQuery nq = NormalizedQuery::From(q);

  const double select_ms =
      TimedMillis(trace, request, "index_set.select", root, [&] {
        for (int i = 0; i < kShortCallRepeats; ++i) {
          (void)set->SelectBestIndex(nq);
        }
      });
  out->Add("index_set.select_us", select_ms * 1e3 / kShortCallRepeats);

  PlanarIndexSet::Explanation explanation;
  TimedMillis(trace, request, "index_set.explain", root,
              [&] { explanation = set->Explain(q); });
  const bool fallback =
      explanation.index_used < 0 || explanation.scan_fallback;
  if (op.kind == Kind::kInequality) {
    out->Add("index_set.scan_fallback", fallback ? 1.0 : 0.0);
  }

  double boundary_ms = 0.0;
  if (!fallback) {
    const PlanarIndex& index =
        set->index(static_cast<size_t>(explanation.index_used));
    boundary_ms = TimedMillis(trace, request, "planar_index.boundary", root,
                              [&] {
                                for (int i = 0; i < kShortCallRepeats; ++i) {
                                  (void)index.ComputeIntervals(nq);
                                }
                              }) /
                  kShortCallRepeats;
    out->Add("planar_index.boundary_us", boundary_ms * 1e3);
    if (op.kind == Kind::kInequality) {
      Result<InequalityResult> served = InequalityResult{};
      const double index_ms =
          TimedMillis(trace, request, "planar_index.inequality", root,
                      [&] { served = index.Inequality(nq); });
      if (served.ok()) {
        out->Add("planar_index.verify_ms", index_ms - boundary_ms);
        out->Add("planar_index.ii_rows",
                 static_cast<double>(served->stats.verified));
        out->Add("planar_index.pruning_frac", served->stats.PruningFraction());
      }
    }
  }

  if (op.kind != Kind::kInequality) return;
  const double set_ms = TimedMillis(trace, request, "index_set.inequality",
                                    root, [&] { (void)set->Inequality(q); });
  const double scan_ms =
      TimedMillis(trace, request, "scan.inequality", root,
                  [&] { (void)ScanInequality(set->phi(), q); });
  out->Add("scan.ineq_ms", scan_ms);
  out->Add("scan.speedup", scan_ms / set_ms);
  if (target.layout == Layout::kIngest) {
    Result<InequalityResult> overlaid = InequalityResult{};
    const double ingest_ms =
        TimedMillis(trace, request, "ingest.inequality", root, [&] {
          system.ingest->Inequality(target.name, q, Deadline::Infinite(),
                                    &overlaid);
        });
    out->Add("ingest.overlay_ms", ingest_ms - set_ms);
  }
}

void ProbeSharded(const System& system, const TargetSpec& target, const Op& op,
                  uint64_t request, int64_t root, TraceBuffer* trace,
                  ProbeSamples* out) {
  const Catalog::ShardedPtr sharded = system.catalog->FindSharded(target.name);
  const ScalarProductQuery& q = op.query;
  const size_t k = system.spec->topk_k;
  const bool topk = op.kind == Kind::kTopK;
  const double fanout_ms =
      TimedMillis(trace, request, "sharded.fanout", root, [&] {
        if (topk) {
          (void)sharded->TopK(q, k);
        } else {
          (void)sharded->Inequality(q);
        }
      });
  double slowest_ms = 0.0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const PlanarIndexSet& shard = sharded->shard(s);
    slowest_ms = std::max(
        slowest_ms, TimedMillis(trace, request, "sharded.shard", root, [&] {
          if (topk) {
            (void)shard.TopK(q, k);
          } else {
            (void)shard.Inequality(q);
          }
        }));
  }
  out->Add("sharded.fanout_ms", fanout_ms);
  out->Add("sharded.slowest_shard_ms", slowest_ms);
  out->Add("sharded.merge_ms", fanout_ms - slowest_ms);
}

}  // namespace

void ProbeRequest(const System& system, const Op& op, uint64_t request,
                  TraceBuffer* trace, ProbeSamples* samples) {
  const TargetSpec& target = system.spec->targets[op.target];
  const int64_t root = trace->Add(request, "probe", -1, NowNs(), 0);
  if (target.layout == Layout::kSharded) {
    ProbeSharded(system, target, op, request, root, trace, samples);
  } else {
    ProbeSet(system, target, op, request, root, trace, samples);
  }
  trace->End(root, NowNs());
}

}  // namespace perfbench
}  // namespace planar
