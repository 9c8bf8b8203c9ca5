// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// A reusable worker pool — the execution substrate for every fan-out
// path in the tree (parallel index builds and sorts, ShardedIndexSet
// scatter-gather, engine workers). Before this existed, a parallel-for
// constructed and joined fresh std::threads on every call, paying spawn
// latency even for tiny batches; the pool amortizes that
// cost across the process lifetime and is the one place allowed to
// construct std::thread in src/ (planar_lint rule `threads-via-pool`).
//
// ParallelFor keeps the determinism contract callers rely on: fn(i) runs
// exactly once for every i, indices are partitioned into contiguous
// chunks, and the call blocks until all of them returned. Which pool
// thread runs which chunk is unspecified — callers that need ordered
// output merge per-chunk buffers in chunk order (see SortEntries).
//
// The submitting thread participates in its own ParallelFor (it claims
// chunk tickets alongside the pool workers), so a fan-out always makes
// progress even when every pool thread is busy or the pool has zero
// threads — nested ParallelFor cannot deadlock, it degrades to serial.

#ifndef PLANAR_COMMON_THREAD_POOL_H_
#define PLANAR_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace planar {

/// Pool sizing knobs.
struct ThreadPoolOptions {
  /// Worker threads owned by the pool. 0 = default sizing: one thread
  /// per hardware core, floored at kThreadPoolMinDefaultThreads so
  /// concurrency tests still interleave on single-core CI runners.
  size_t threads = 0;
};

/// Floor applied to default-sized pools (ThreadPoolOptions::threads == 0).
/// A 1-core host would otherwise get a 1-thread pool and every
/// "concurrent" tsan/stress schedule would quietly serialize.
inline constexpr size_t kThreadPoolMinDefaultThreads = 4;

/// CPUs the calling thread may run on: the size of its affinity mask on
/// Linux (so taskset and cpuset limits count), the hardware thread count
/// elsewhere. At least 1.
size_t UsableCpus();

/// Fixed-size pool of worker threads fed from one FIFO task queue.
/// Tasks are arbitrary closures: short-lived ParallelFor chunk claims
/// and long-lived engine worker loops share the same pool mechanics.
/// Thread-safe; Shutdown() (or the destructor) drains the queue and
/// joins every worker — threads are never detached.
class ThreadPool {
 public:
  explicit ThreadPool(const ThreadPoolOptions& options = ThreadPoolOptions());
  /// Shutdown()s.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for some pool worker. Must not be called after
  /// Shutdown(). Long-running tasks (engine worker loops) occupy their
  /// thread until they return; size the pool accordingly.
  void Run(std::function<void()> task) PLANAR_EXCLUDES(mu_);

  /// Runs fn(i) for every i in [0, n), partitioned into contiguous
  /// chunks claimed by up to `max_workers` threads (0 = hardware
  /// concurrency), never more than n and never more than the pool size
  /// plus the calling thread, which always participates. Blocks until
  /// every index ran exactly once. Safe to call from inside a pool task
  /// (degrades toward serial instead of deadlocking).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_workers = 0) PLANAR_EXCLUDES(mu_);

  /// Closes the queue, runs every task already enqueued to completion,
  /// and joins all workers. Idempotent; not concurrency-safe against
  /// Run/ParallelFor racing the close.
  void Shutdown() PLANAR_EXCLUDES(mu_);

  /// Worker threads owned by the pool (0 after Shutdown()).
  size_t threads() const { return workers_.size(); }

  /// Process-wide shared pool used by every library fan-out and any
  /// caller without an explicit pool. Default-sized, constructed on
  /// first use and joined at static destruction.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable Mutex mu_{kLockRankThreadPool};
  /// Signaled on every enqueue and on close.
  CondVar work_;
  std::deque<std::function<void()>> tasks_ PLANAR_GUARDED_BY(mu_);
  bool closed_ PLANAR_GUARDED_BY(mu_) = false;
  /// Immutable between construction and Shutdown(); threads() reads the
  /// size without mu_ on that basis.
  std::vector<std::thread> workers_;
};

}  // namespace planar

#endif  // PLANAR_COMMON_THREAD_POOL_H_
