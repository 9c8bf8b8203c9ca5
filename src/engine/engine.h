// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Engine: a concurrent query-serving runtime over a Catalog of planar
// index sets. Requests enter through a bounded queue (admission control:
// a full queue sheds with kResourceExhausted, never blocks the caller)
// and a worker pool executes them one at a time. Each request can carry a
// deadline that is honored both before execution starts and cooperatively
// inside the II verification loops of the core query paths. Shutdown is a
// graceful drain: queued requests still execute, then workers exit.
//
// With num_workers == 0 the engine runs no threads and the caller drives
// execution explicitly via RunPending() — the deterministic mode the unit
// tests use to exercise admission and accounting without scheduler races.

#ifndef PLANAR_ENGINE_ENGINE_H_
#define PLANAR_ENGINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/overlay.h"
#include "engine/bounded_queue.h"
#include "engine/catalog.h"
#include "engine/ingest_hook.h"
#include "engine/metrics.h"
#include "engine/request.h"

namespace planar {

/// Engine sizing and scheduling knobs.
struct EngineOptions {
  /// Worker threads. 0 means no threads: the owner calls RunPending().
  /// An idle worker spins for at most kPopSpinBudget (50 µs, see
  /// engine/bounded_queue.h) after each pop before it sleeps, so a
  /// request that arrives within that window starts without a thread
  /// wake-up; a fully idle engine costs that much CPU per worker and
  /// then none. Workers never spin when the engine is constructed on a
  /// thread that may run on only one CPU.
  size_t num_workers = 4;
  /// Admission-control bound: Submit() sheds once this many requests are
  /// queued. The queue's ring holds one cache-line-aligned slot per
  /// request and is allocated when the Engine is constructed: 192 bytes a
  /// slot with gcc on x86-64, 192 KiB at the default capacity.
  size_t queue_capacity = 1024;
  /// Default shard count for BuildAndInstallSharded when the caller's
  /// ShardedIndexSetOptions leave shards == 0. 0 = one shard per
  /// hardware core (the shard-per-core serving layout).
  size_t shards = 0;
};

/// A serving runtime bound to one (not owned) catalog.
class Engine {
 public:
  /// `catalog` must outlive the engine.
  explicit Engine(Catalog* catalog,
                  const EngineOptions& options = EngineOptions());
  /// Drains (see Drain) before destruction.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admits `request` and returns a future for its response. Fails fast —
  /// without blocking or enqueueing — with kResourceExhausted when the
  /// queue is at capacity and kUnavailable once draining has begun.
  Result<std::future<EngineResponse>> Submit(EngineRequest request);

  /// Pops and executes up to 16 queued requests on the calling thread,
  /// one at a time; returns how many ran. Never blocks. This is the
  /// execution path when num_workers == 0, and is also safe to call as a
  /// helping hand alongside a worker pool.
  size_t RunPending();

  /// Graceful shutdown: stops admission (subsequent Submit ->
  /// kUnavailable), lets queued requests finish, joins the workers, and
  /// executes any remainder inline (covers the 0-worker mode).
  /// Idempotent.
  void Drain();

  /// Point-in-time counters, gauges, and latency histograms. The
  /// counter conservation laws are exact after Drain() and best-effort
  /// (momentarily behind) while requests are moving.
  DebugSnapshot Snapshot() const;

  /// Builds a ShardedIndexSet and installs it in the bound catalog under
  /// `name` (requests naming it then scatter-gather across its shards).
  /// When `options.shards` is 0, EngineOptions::shards decides (0 there
  /// = one shard per core). The build runs on the calling thread,
  /// outside any lock.
  Result<Catalog::ShardedPtr> BuildAndInstallSharded(
      const std::string& name, PhiMatrix phi,
      const std::vector<ParameterDomain>& domains,
      ShardedIndexSetOptions options = ShardedIndexSetOptions());

  /// Attaches the write-path backend (see engine/ingest_hook.h): kAppend
  /// requests route to it, reads against targets it manages are served
  /// from the epoch it pins (base plus delta), and its counters flow
  /// into this engine's metrics. `backend`
  /// must outlive the engine (or be detached with nullptr after its own
  /// Stop()). Not thread-safe against in-flight requests — attach before
  /// serving, as part of engine setup.
  void AttachIngest(IngestBackend* backend);

  const EngineOptions& options() const { return options_; }

 private:
  struct Pending {
    EngineRequest request;
    std::promise<EngineResponse> promise;
    WallTimer queued;  // started on admission; read when execution begins
  };

  /// What a read request's target name resolved to. Read serves
  /// `sharded` when set, else `overlay` when set, else `set`.
  struct Target {
    Catalog::SetPtr set;
    Catalog::ShardedPtr sharded;
    std::shared_ptr<const OverlaySet> overlay;  ///< ingest-managed `set`
  };

  /// Resolves `name`: the catalog's monolithic entry, else its sharded
  /// one, else kNotFound; a monolithic entry the attached ingest backend
  /// manages also gets its pinned epoch.
  Status Resolve(const std::string& name, Target* target) const;

  /// Runs `read(s)` on the set `target` resolved to — PlanarIndexSet,
  /// ShardedIndexSet and OverlaySet share method names — and feeds a
  /// sharded answer's fan-out into the metrics.
  template <typename ReadFn>
  auto Read(const Target& target, const ReadFn& read);

  /// Runs one request to completion: target resolution, pre-execution
  /// deadline check, deadline-aware query call through Read.
  EngineResponse Execute(const EngineRequest& request);

  /// Executes the requests of one pop in order through Execute,
  /// fulfilling promises and recording metrics.
  void RunBatch(std::vector<Pending>& batch);

  void WorkerLoop();

  Catalog* const catalog_;
  const EngineOptions options_;
  BoundedQueue<Pending> queue_;
  // Borrowed write-path backend; null until AttachIngest. Atomic so the
  // const query paths can load it without a lock (attachment happens
  // before serving; the atomic is belt-and-suspenders for snapshots).
  std::atomic<IngestBackend*> ingest_{nullptr};
  EngineMetrics metrics_;
  /// Worker threads live on a dedicated pool; null in 0-worker mode.
  /// Each worker occupies one pool thread with WorkerLoop until the
  /// queue closes.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<size_t> in_flight_{0};
};

}  // namespace planar

#endif  // PLANAR_ENGINE_ENGINE_H_
