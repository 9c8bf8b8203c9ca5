// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "ingest/ingest.h"

#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "engine/metrics.h"

namespace planar {

IngestManager::IngestManager(Catalog* catalog, const IngestOptions& options)
    : catalog_(catalog), options_(options) {
  PLANAR_CHECK(catalog != nullptr);
  PLANAR_CHECK(options_.delta_capacity > 0);
  PLANAR_CHECK(options_.merge_threshold > 0);
  PLANAR_CHECK(options_.merge_threshold <= options_.delta_capacity);
}

IngestManager::~IngestManager() { Stop(); }

Status IngestManager::Manage(const std::string& target) {
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::Unavailable("ingest manager is stopped");
  }
  const Catalog::SetPtr base = catalog_->Find(target);
  if (base == nullptr) {
    return Status::NotFound("no catalog entry named '" + target + "'");
  }
  auto shard = std::make_unique<Shard>(target);
  shard->dim = base->phi().dim();
  Shard* raw = shard.get();
  {
    MutexLock lock(&mu_);
    if (shards_.count(target) != 0) {
      return Status::FailedPrecondition("'" + target +
                                        "' is already ingest-managed");
    }
    {
      MutexLock shard_lock(&raw->mu);
      raw->delta =
          std::make_shared<DeltaBuffer>(raw->dim, options_.delta_capacity);
      raw->view = std::make_shared<const ShardedIndexSet>(
          ShardedIndexSet::Epoch(base, raw->delta));
    }
    // threads-ok: dedicated merger thread (see Shard::merger in
    // ingest.h); joined in Stop(), never pooled.
    raw->merger = std::thread([this, raw] { MergerLoop(raw); });
    shards_.emplace(target, std::move(shard));
  }
  return Status::OK();
}

IngestManager::Shard* IngestManager::FindShard(
    const std::string& target) const {
  ReaderMutexLock lock(&mu_);
  auto it = shards_.find(target);
  return it == shards_.end() ? nullptr : it->second.get();
}

Catalog::ShardedPtr IngestManager::Pin(const std::string& target) const {
  Shard* shard = FindShard(target);
  if (shard == nullptr) return nullptr;
  ReaderMutexLock epoch(&shard->mu);
  return shard->view;
}

bool IngestManager::Inequality(const std::string& target,
                               const ScalarProductQuery& q,
                               const Deadline& deadline,
                               Result<InequalityResult>* out) const {
  const Catalog::ShardedPtr view = Pin(target);
  if (view == nullptr) return false;
  *out = view->Inequality(q, deadline);
  return true;
}

Result<uint32_t> IngestManager::Append(const std::string& target,
                                       const std::vector<double>& rows) {
  Shard* shard = FindShard(target);
  if (shard == nullptr) {
    return Status::NotFound("'" + target + "' is not ingest-managed");
  }
  if (rows.empty() || rows.size() % shard->dim != 0) {
    return Status::InvalidArgument(
        "append payload must be a non-empty multiple of " +
        std::to_string(shard->dim) + " doubles (row-major phi rows)");
  }
  // A NaN or infinite value would poison the merged index: its keys break
  // the rank order the boundary search relies on, so answers stop
  // matching the scan.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!std::isfinite(rows[i])) {
      return Status::InvalidArgument(
          "append payload row " + std::to_string(i / shard->dim) +
          " holds a non-finite value in column " +
          std::to_string(i % shard->dim));
    }
  }
  const size_t count = rows.size() / shard->dim;
  EngineMetrics* const metrics = metrics_.load(std::memory_order_acquire);
  MutexLock lock(&shard->mu);
  if (shard->stop) {
    return Status::Unavailable("ingest manager is stopped");
  }
  const uint32_t first = static_cast<uint32_t>(shard->view->size());
  if (!shard->delta->Append(rows.data(), count)) {
    // Shed, never block: the caller retries after the merge the full
    // delta has already triggered.
    shard->wake.Signal();
    if (metrics != nullptr) metrics->OnAppendShed();
    return Status::ResourceExhausted(
        "delta for '" + target + "' is at capacity (" +
        std::to_string(shard->delta->capacity()) +
        " rows); merge in progress, retry");
  }
  shard->appended_total += count;
  if (shard->delta->size() >= options_.merge_threshold) {
    shard->wake.Signal();
  }
  if (metrics != nullptr) metrics->OnAppendedRows(count);
  return first;
}

void IngestManager::BindMetrics(EngineMetrics* metrics) {
  metrics_.store(metrics, std::memory_order_release);
}

IngestBackend::Gauges IngestManager::gauges() const {
  Gauges gauges;
  // relaxed-ok: monotone monitoring counter; nothing orders on it.
  gauges.merges = merges_.load(std::memory_order_relaxed);
  ReaderMutexLock lock(&mu_);
  gauges.targets = shards_.size();
  for (const auto& [name, shard] : shards_) {
    ReaderMutexLock epoch(&shard->mu);
    gauges.delta_rows += shard->delta->size();
  }
  return gauges;
}

Status IngestManager::Flush(const std::string& target,
                            const Deadline& deadline) {
  Shard* shard = FindShard(target);
  if (shard == nullptr) {
    return Status::NotFound("'" + target + "' is not ingest-managed");
  }
  MutexLock lock(&shard->mu);
  const uint64_t goal = shard->appended_total;
  shard->flush_requested = true;
  shard->wake.Signal();
  while (shard->merged_total < goal) {
    if (shard->stop) {
      return Status::Unavailable("ingest manager stopped during flush");
    }
    if (deadline.is_infinite()) {
      shard->merged.Wait(&shard->mu);
    } else if (!shard->merged.WaitUntil(&shard->mu, deadline.when()) &&
               shard->merged_total < goal) {
      return Status::DeadlineExceeded("flush deadline expired with " +
                                      std::to_string(goal -
                                                     shard->merged_total) +
                                      " rows unmerged");
    }
  }
  return Status::OK();
}

void IngestManager::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  std::vector<Shard*> all;
  {
    ReaderMutexLock lock(&mu_);
    all.reserve(shards_.size());
    for (const auto& [name, shard] : shards_) all.push_back(shard.get());
  }
  for (Shard* shard : all) {
    {
      MutexLock lock(&shard->mu);
      shard->stop = true;
    }
    shard->wake.Signal();
    shard->merged.SignalAll();
  }
  for (Shard* shard : all) {
    if (shard->merger.joinable()) shard->merger.join();
  }
}

void IngestManager::MergerLoop(Shard* shard) {
  for (;;) {
    Catalog::ShardedPtr view;
    std::shared_ptr<const DeltaBuffer> delta;
    size_t drain = 0;
    {
      MutexLock lock(&shard->mu);
      while (!shard->stop && !shard->flush_requested &&
             shard->delta->size() < options_.merge_threshold) {
        shard->wake.Wait(&shard->mu);
      }
      drain = shard->delta->size();
      if (drain == 0) {
        if (shard->flush_requested) {
          // Nothing outstanding: the flush goal is already met.
          shard->flush_requested = false;
          shard->merged.SignalAll();
        }
        if (shard->stop) return;
        continue;
      }
      view = shard->view;
      delta = shard->delta;
    }
    // The expensive part runs with no lock held: clone the installed
    // base (readers keep serving it), fold in the drained prefix, and
    // install. The drained rows are immutable and `drain` was
    // snapshotted under the lock, so concurrent appends (which only
    // extend past `drain`) cannot race this read.
    WallTimer merge_timer;
    PlanarIndexSet merged = view->shard(0).Clone();
    const Status appended = merged.AppendRows(delta->data(), drain);
    PLANAR_CHECK(appended.ok());
    const Catalog::SetPtr installed =
        catalog_->Install(shard->name, std::move(merged));
    // Account the merge before waking flushers so a caller returning
    // from Flush() observes the bumped counters.
    // relaxed-ok: monotone monitoring counter; nothing orders on it.
    merges_.fetch_add(1, std::memory_order_relaxed);
    if (EngineMetrics* const metrics =
            metrics_.load(std::memory_order_acquire)) {
      metrics->OnMergeCompleted(merge_timer.ElapsedMillis());
    }
    // The fresh delta and the epoch over it are allocated (and the delta
    // zero-filled) before the lock: Append and Pin of this target wait on
    // shard->mu.
    auto fresh =
        std::make_shared<DeltaBuffer>(shard->dim, options_.delta_capacity);
    auto epoch = std::make_shared<const ShardedIndexSet>(
        ShardedIndexSet::Epoch(installed, fresh));
    {
      MutexLock lock(&shard->mu);
      // Epoch swap: surviving tail rows (appended during the merge) move
      // to the fresh delta. Their global ids are unchanged — the base grew
      // by exactly the number of rows removed in front of them.
      const size_t now = shard->delta->size();
      if (now > drain) {
        PLANAR_CHECK(fresh->Append(shard->delta->data() + drain * shard->dim,
                                   now - drain));
      }
      shard->delta = fresh;
      shard->view = std::move(epoch);
      shard->merged_total += drain;
      if (shard->flush_requested && shard->delta->size() == 0) {
        shard->flush_requested = false;
      }
      shard->merged.SignalAll();
    }
  }
}

}  // namespace planar
