// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/macros.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace planar {

namespace {

size_t DefaultThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(hw, kThreadPoolMinDefaultThreads);
}

/// One ParallelFor fan-out. The calling thread and any helper tasks
/// enqueued on the pool claim contiguous chunk tickets from `next`; the
/// caller blocks in Wait() until every chunk ran. Held by shared_ptr: a
/// helper the pool dequeues after the caller already finished every
/// chunk still has a live object to consult (it claims no ticket and
/// exits immediately).
struct ParallelJob {
  ParallelJob(size_t total, size_t chunk_size, size_t chunk_count,
              const std::function<void(size_t)>* body)
      : n(total), chunk(chunk_size), chunks(chunk_count), fn(body) {}

  /// Claims chunks until none remain. `fn` is guaranteed alive for
  /// every claimed chunk: Wait() returns only after the final chunk
  /// bumped `done`, so the caller's frame outlives every fn(i) call.
  void RunChunks() {
    for (;;) {
      // relaxed-ok: the ticket counter only partitions indices — each
      // fetch_add claims a distinct chunk — and the visibility callers
      // rely on is provided by the job mutex below, whose final unlock
      // happens-before Wait() returning.
      const size_t ticket = next.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= chunks) return;
      const size_t begin = ticket * chunk;
      const size_t end = std::min(n, begin + chunk);
      for (size_t i = begin; i < end; ++i) (*fn)(i);
      MutexLock lock(&mu);
      if (++done == chunks) all_done.SignalAll();
    }
  }

  void Wait() {
    MutexLock lock(&mu);
    while (done < chunks) all_done.Wait(&mu);
  }

  const size_t n;
  const size_t chunk;
  const size_t chunks;
  const std::function<void(size_t)>* fn;
  std::atomic<size_t> next{0};
  Mutex mu{kLockRankThreadPoolJob};
  CondVar all_done;
  size_t done PLANAR_GUARDED_BY(mu) = 0;
};

}  // namespace

size_t UsableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(const ThreadPoolOptions& options) {
  const size_t count =
      options.threads == 0 ? DefaultThreads() : options.threads;
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Run(std::function<void()> task) {
  PLANAR_CHECK(task != nullptr);
  {
    MutexLock lock(&mu_);
    PLANAR_CHECK(!closed_);
    tasks_.push_back(std::move(task));
  }
  work_.Signal();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t max_workers) {
  if (n == 0) return;
  size_t width = max_workers;
  if (width == 0) {
    width = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  width = std::min(width, n);
  width = std::min(width, workers_.size() + 1);  // pool + calling thread
  if (width <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunk = (n + width - 1) / width;
  const size_t chunks = (n + chunk - 1) / chunk;
  auto job = std::make_shared<ParallelJob>(n, chunk, chunks, &fn);
  size_t helpers = chunks - 1;
  {
    MutexLock lock(&mu_);
    if (closed_) {
      // No pool to help: the calling thread runs every chunk itself.
      helpers = 0;
    } else {
      for (size_t h = 0; h < helpers; ++h) {
        tasks_.emplace_back([job] { job->RunChunks(); });
      }
    }
  }
  if (helpers > 0) work_.SignalAll();
  job->RunChunks();
  job->Wait();
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
  }
  work_.SignalAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!closed_ && tasks_.empty()) work_.Wait(&mu_);
      if (tasks_.empty()) return;  // closed and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Function-local static: constructed on first use and joined (not
  // leaked) at static destruction, keeping LeakSanitizer clean.
  static ThreadPool pool;
  return pool;
}

}  // namespace planar
