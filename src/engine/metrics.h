// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Engine observability: monotone counters over the request lifecycle and
// fixed-bucket latency histograms, exposed as a point-in-time
// DebugSnapshot. The counters obey a conservation law the tests assert:
// submitted = admitted + rejected_queue_full + rejected_draining, and
// after a Drain() every admitted request is accounted for as
// completed_ok + deadline_exceeded + failed.

#ifndef PLANAR_ENGINE_METRICS_H_
#define PLANAR_ENGINE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"

namespace planar {

/// Monotone request-lifecycle counters.
struct EngineCounters {
  uint64_t submitted = 0;           ///< Submit() calls
  uint64_t admitted = 0;            ///< accepted into the queue
  uint64_t rejected_queue_full = 0; ///< shed with kResourceExhausted
  uint64_t rejected_draining = 0;   ///< refused with kUnavailable
  uint64_t completed_ok = 0;        ///< finished with an OK status
  uint64_t deadline_exceeded = 0;   ///< finished with kDeadlineExceeded
  uint64_t failed = 0;              ///< finished with any other error
  // Ingest lifecycle (bumped by the attached IngestBackend; all zero when
  // no backend is attached). appended_rows / wall time is the ingest qps.
  uint64_t appended_rows = 0;       ///< rows accepted into a delta
  uint64_t appends_shed = 0;        ///< appends shed (delta at capacity)
  uint64_t merges = 0;              ///< background merges installed
  // Sharded scatter-gather serving (zero when no sharded set is used).
  uint64_t sharded_queries = 0;     ///< queries fanned across shards
  uint64_t shard_rows_verified = 0; ///< II rows verified across all shards
  // Approximate aggregate fast path (kCount / kAggregate requests).
  // count_refined / count_queries is the refinement rate: the fraction of
  // count-family requests whose boundary bounds were not already within
  // tolerance and had to stream II rows.
  uint64_t count_queries = 0;       ///< kCount + kAggregate executed
  uint64_t count_refined = 0;       ///< of those, how many refined the II
};

/// Bucket layout for shard-fanout samples: how many shards one sharded
/// query scattered across (powers of two up to the largest shard count a
/// sane deployment configures).
FixedBucketHistogram ShardFanoutHistogram();

/// Bucket layout for bound-gap samples: the upper - lower width a
/// count-family request returned with, before any caller-side rounding
/// (powers of four; 0 means the answer was exact).
FixedBucketHistogram BoundGapHistogram();

/// Point-in-time view of one engine, safe to inspect with no locks held.
struct DebugSnapshot {
  EngineCounters counters;
  /// End-to-end execution latency of finished requests (milliseconds).
  FixedBucketHistogram latency_millis = FixedBucketHistogram::LatencyMillis();
  /// Time requests spent queued before execution (milliseconds).
  FixedBucketHistogram queue_wait_millis =
      FixedBucketHistogram::LatencyMillis();
  /// Always empty: the engine no longer coalesces requests. Kept because
  /// perfbench still reads both fields as engine.batch_occupancy and
  /// engine.rows_shared_per_query (which now read 0); remove them with
  /// the next benchmark change.
  FixedBucketHistogram batch_occupancy = FixedBucketHistogram({1});
  FixedBucketHistogram rows_shared_per_query = FixedBucketHistogram({1});
  /// Wall time of each background delta merge, clone through install
  /// (one sample per merge; milliseconds).
  FixedBucketHistogram merge_latency_millis =
      FixedBucketHistogram::LatencyMillis();
  /// Shards each sharded query scattered across (one sample per sharded
  /// execution; unitless shard counts).
  FixedBucketHistogram shard_fanout = ShardFanoutHistogram();
  /// Bound gap each count-family request answered with (one sample per
  /// OK kCount/kAggregate execution; unitless row counts).
  FixedBucketHistogram bound_gap = BoundGapHistogram();
  size_t queue_depth = 0;      ///< requests waiting at snapshot time
  size_t in_flight = 0;        ///< requests executing at snapshot time
  size_t workers = 0;          ///< worker threads configured
  size_t catalog_entries = 0;  ///< entries in the attached catalog
  size_t ingest_targets = 0;   ///< catalog entries under ingest management
  size_t delta_rows = 0;       ///< unmerged delta rows at snapshot time
  bool draining = false;       ///< Drain() has begun

  /// Renders counters, gauges, and latency percentiles as an aligned
  /// table (TablePrinter layout).
  std::string ToString() const;
};

/// Thread-safe metrics sink shared by Submit() and the workers.
class EngineMetrics {
 public:
  EngineMetrics();

  void OnSubmitted() { Bump(&submitted_); }
  void OnAdmitted() { Bump(&admitted_); }
  void OnRejectedQueueFull() { Bump(&rejected_queue_full_); }
  void OnRejectedDraining() { Bump(&rejected_draining_); }

  /// Records one finished request: classifies `status` into the
  /// completion counters and feeds both histograms.
  void OnCompleted(const Status& status, double queue_millis,
                   double execute_millis) PLANAR_EXCLUDES(hist_mu_);

  /// Ingest lifecycle, bumped by the attached IngestBackend.
  void OnAppendedRows(size_t rows) {
    // relaxed-ok: independent monotone counter, same contract as Bump.
    appended_rows_.fetch_add(rows, std::memory_order_relaxed);
  }
  void OnAppendShed() { Bump(&appends_shed_); }
  /// Records one background merge: bumps the merge counter and feeds the
  /// merge-latency histogram.
  void OnMergeCompleted(double merge_millis) PLANAR_EXCLUDES(hist_mu_);

  /// Records one sharded scatter-gather execution: how many shards it
  /// fanned across and how many II rows the shards verified in total.
  void OnShardedExecuted(size_t fanout, uint64_t rows_verified)
      PLANAR_EXCLUDES(hist_mu_);

  /// Records one OK count-family (kCount / kAggregate) execution: whether
  /// it refined past the boundary bounds, and the bound gap it answered
  /// with (feeds the refinement-rate counters and the gap histogram).
  void OnCountExecuted(bool refined, uint64_t gap) PLANAR_EXCLUDES(hist_mu_);

  /// Consistent copy of the counters.
  EngineCounters counters() const;

  /// Copies of the histograms (bucket layouts included).
  FixedBucketHistogram latency_millis() const PLANAR_EXCLUDES(hist_mu_);
  FixedBucketHistogram queue_wait_millis() const PLANAR_EXCLUDES(hist_mu_);
  FixedBucketHistogram merge_latency_millis() const PLANAR_EXCLUDES(hist_mu_);
  FixedBucketHistogram shard_fanout() const PLANAR_EXCLUDES(hist_mu_);
  FixedBucketHistogram bound_gap() const PLANAR_EXCLUDES(hist_mu_);

 private:
  static void Bump(std::atomic<uint64_t>* c) {
    // relaxed-ok: independent monotone counters; no reader infers
    // cross-counter ordering from a single load (the conservation laws
    // are only exact after Drain(), whose joins provide the ordering).
    c->fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_draining_{0};
  std::atomic<uint64_t> completed_ok_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> appended_rows_{0};
  std::atomic<uint64_t> appends_shed_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> sharded_queries_{0};
  std::atomic<uint64_t> shard_rows_verified_{0};
  std::atomic<uint64_t> count_queries_{0};
  std::atomic<uint64_t> count_refined_{0};

  mutable Mutex hist_mu_{kLockRankEngineMetrics};
  FixedBucketHistogram latency_millis_ PLANAR_GUARDED_BY(hist_mu_);
  FixedBucketHistogram queue_wait_millis_ PLANAR_GUARDED_BY(hist_mu_);
  FixedBucketHistogram merge_latency_millis_ PLANAR_GUARDED_BY(hist_mu_);
  FixedBucketHistogram shard_fanout_ PLANAR_GUARDED_BY(hist_mu_);
  FixedBucketHistogram bound_gap_ PLANAR_GUARDED_BY(hist_mu_);
};

}  // namespace planar

#endif  // PLANAR_ENGINE_METRICS_H_
