// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "engine/metrics.h"

#include <utility>
#include <vector>

#include "common/table_printer.h"

namespace planar {

FixedBucketHistogram ShardFanoutHistogram() {
  return FixedBucketHistogram({1, 2, 4, 8, 16, 32, 64});
}

FixedBucketHistogram BoundGapHistogram() {
  // Powers of four: gaps span from exact (0) through a handful of
  // unresolved II rows up to whole-II widths on million-row sets.
  return FixedBucketHistogram({0, 1, 4, 16, 64, 256, 1024, 4096, 16384,
                               65536, 262144, 1048576});
}

EngineMetrics::EngineMetrics()
    : latency_millis_(FixedBucketHistogram::LatencyMillis()),
      queue_wait_millis_(FixedBucketHistogram::LatencyMillis()),
      merge_latency_millis_(FixedBucketHistogram::LatencyMillis()),
      shard_fanout_(ShardFanoutHistogram()),
      bound_gap_(BoundGapHistogram()) {}

void EngineMetrics::OnCompleted(const Status& status, double queue_millis,
                                double execute_millis) {
  if (status.ok()) {
    Bump(&completed_ok_);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    Bump(&deadline_exceeded_);
  } else {
    Bump(&failed_);
  }
  MutexLock lock(&hist_mu_);
  latency_millis_.Add(execute_millis);
  queue_wait_millis_.Add(queue_millis);
}

EngineCounters EngineMetrics::counters() const {
  EngineCounters c;
  // relaxed-ok: point-in-time copy of independent counters; the
  // conservation laws are only promised exact after Drain(), whose
  // thread joins order every prior Bump before this read.
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.admitted = admitted_.load(std::memory_order_relaxed);
  c.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  c.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  c.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  c.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.appended_rows = appended_rows_.load(std::memory_order_relaxed);
  c.appends_shed = appends_shed_.load(std::memory_order_relaxed);
  c.merges = merges_.load(std::memory_order_relaxed);
  c.sharded_queries = sharded_queries_.load(std::memory_order_relaxed);
  c.shard_rows_verified = shard_rows_verified_.load(std::memory_order_relaxed);
  c.count_queries = count_queries_.load(std::memory_order_relaxed);
  c.count_refined = count_refined_.load(std::memory_order_relaxed);
  return c;
}

void EngineMetrics::OnCountExecuted(bool refined, uint64_t gap) {
  Bump(&count_queries_);
  if (refined) Bump(&count_refined_);
  MutexLock lock(&hist_mu_);
  bound_gap_.Add(static_cast<double>(gap));
}

FixedBucketHistogram EngineMetrics::bound_gap() const {
  MutexLock lock(&hist_mu_);
  return bound_gap_;
}

void EngineMetrics::OnShardedExecuted(size_t fanout, uint64_t rows_verified) {
  Bump(&sharded_queries_);
  // relaxed-ok: independent monotone counter, same contract as Bump.
  shard_rows_verified_.fetch_add(rows_verified, std::memory_order_relaxed);
  MutexLock lock(&hist_mu_);
  shard_fanout_.Add(static_cast<double>(fanout));
}

FixedBucketHistogram EngineMetrics::shard_fanout() const {
  MutexLock lock(&hist_mu_);
  return shard_fanout_;
}

void EngineMetrics::OnMergeCompleted(double merge_millis) {
  Bump(&merges_);
  MutexLock lock(&hist_mu_);
  merge_latency_millis_.Add(merge_millis);
}

FixedBucketHistogram EngineMetrics::merge_latency_millis() const {
  MutexLock lock(&hist_mu_);
  return merge_latency_millis_;
}

FixedBucketHistogram EngineMetrics::latency_millis() const {
  MutexLock lock(&hist_mu_);
  return latency_millis_;
}

FixedBucketHistogram EngineMetrics::queue_wait_millis() const {
  MutexLock lock(&hist_mu_);
  return queue_wait_millis_;
}

std::string DebugSnapshot::ToString() const {
  TablePrinter table({"metric", "value"});
  const auto add = [&table](const std::string& name, uint64_t value) {
    table.AddRow({name, std::to_string(value)});
  };
  add("submitted", counters.submitted);
  add("admitted", counters.admitted);
  add("rejected_queue_full", counters.rejected_queue_full);
  add("rejected_draining", counters.rejected_draining);
  add("completed_ok", counters.completed_ok);
  add("deadline_exceeded", counters.deadline_exceeded);
  add("failed", counters.failed);
  add("appended_rows", counters.appended_rows);
  add("appends_shed", counters.appends_shed);
  add("merges", counters.merges);
  add("sharded_queries", counters.sharded_queries);
  add("shard_rows_verified", counters.shard_rows_verified);
  add("count_queries", counters.count_queries);
  add("count_refined", counters.count_refined);
  add("queue_depth", queue_depth);
  add("in_flight", in_flight);
  add("workers", workers);
  add("catalog_entries", catalog_entries);
  add("ingest_targets", ingest_targets);
  add("delta_rows", delta_rows);
  table.AddRow({"draining", draining ? "true" : "false"});

  const auto add_histogram = [&table](const std::string& prefix,
                                      const FixedBucketHistogram& h) {
    table.AddRow({prefix + "_count", std::to_string(h.count())});
    table.AddRow({prefix + "_mean_ms", FormatDouble(h.mean())});
    table.AddRow({prefix + "_p50_ms", FormatDouble(h.ApproxPercentile(50))});
    table.AddRow({prefix + "_p90_ms", FormatDouble(h.ApproxPercentile(90))});
    table.AddRow({prefix + "_p99_ms", FormatDouble(h.ApproxPercentile(99))});
  };
  add_histogram("latency", latency_millis);
  add_histogram("queue_wait", queue_wait_millis);
  add_histogram("merge_latency", merge_latency_millis);

  // Unitless histograms (counts, not milliseconds).
  const auto add_count_histogram = [&table](const std::string& prefix,
                                            const FixedBucketHistogram& h) {
    table.AddRow({prefix + "_count", std::to_string(h.count())});
    table.AddRow({prefix + "_mean", FormatDouble(h.mean())});
    table.AddRow({prefix + "_p50", FormatDouble(h.ApproxPercentile(50))});
    table.AddRow({prefix + "_p90", FormatDouble(h.ApproxPercentile(90))});
    table.AddRow({prefix + "_p99", FormatDouble(h.ApproxPercentile(99))});
  };
  add_count_histogram("shard_fanout", shard_fanout);
  add_count_histogram("bound_gap", bound_gap);
  return table.ToText();
}

}  // namespace planar
