// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Bounded MPMC queue backing the engine's admission control. Producers
// never block: TryPush fails immediately when the queue is full or
// closed, which is what lets Engine::Submit shed load with
// kResourceExhausted instead of stalling the caller. Consumers pop in
// batches; a blocking PopBatch returns 0 only after Close() once the
// queue has drained, so workers exit cleanly without a poison pill.
//
// Consumers spin, then block. An idle consumer first polls a lock-free
// mirror of "an item is queued or the queue is closed" for up to
// kPopSpinBudget, pausing through CpuRelax(); only then does it take the
// lock and sleep on the condition variable. A queue constructed where
// only one CPU is usable never spins: there the producer cannot run
// while the consumer polls, so a spin only delays it. Each sleep is counted in
// sleepers_, and TryPush signals only when that count, read under the
// same lock, is non-zero. A request that arrives while a worker still
// spins is therefore handed over without a condition-variable notify or
// a futex wake, which on a cheap request costs more than executing it.
//
// Synchronization goes through the annotated planar::Mutex layer
// (common/mutex.h): items_, closed_ and sleepers_ are GUARDED_BY(mu_),
// PopLocked and the wait helpers REQUIRES(mu_), and the public API
// EXCLUDES(mu_) — Clang's thread-safety analysis proves the drain
// invariant's locking structure ("every admitted item is popped under
// the same mutex that admitted it") at compile time. The spin mirror is
// only a hint: it is written solely by PublishLocked (REQUIRES(mu_)),
// and every pop re-checks items_ and closed_ under mu_.

#ifndef PLANAR_ENGINE_BOUNDED_QUEUE_H_
#define PLANAR_ENGINE_BOUNDED_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/cpu_relax.h"
#include "common/mutex.h"
#include "common/thread_pool.h"

namespace planar {

/// How long an idle consumer polls for an item before it sleeps; the
/// same 50 µs as perfbench's client-side spin. A/B against blocking at
/// once (perfbench, 4-core x86 host, 10 alternating pairs at 45 s):
/// small_selective p50 latency 14.2 -> 10.4 µs (10/10 pairs) and qps
/// +31%; its traced queue wait 9.3 -> 1.6 µs with execution unchanged.
/// ingest_sharded, where a request executes for ~0.7 ms, got no worse.
inline constexpr std::chrono::nanoseconds kPopSpinBudget{50000};

/// Mutex+condvar bounded queue of movable items whose consumers spin
/// briefly before they block.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity),
        spin_budget_(UsableCpus() > 1 ? kPopSpinBudget
                                      : std::chrono::nanoseconds::zero()) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item` unless the queue is full or closed; never blocks.
  /// Returns false (leaving `item` moved-from only on success) when the
  /// element was not admitted. Signals a consumer only when one is
  /// asleep; a spinning consumer sees the item through the spin mirror.
  bool TryPush(T&& item) PLANAR_EXCLUDES(mu_) {
    bool wake = false;
    {
      MutexLock lock(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      PublishLocked();
      wake = sleepers_ > 0;
    }
    if (wake) ready_.Signal();
    return true;
  }

  /// Waits until at least one item is available or the queue is closed,
  /// then moves up to `max_batch` items into `out` (appended). The wait
  /// spins for up to kPopSpinBudget without the lock (not at all on one
  /// usable CPU), then blocks on the condition variable. Returns the number of items popped; 0 means
  /// closed-and-drained when `max_batch` > 0. A `max_batch` of 0 pops
  /// nothing and returns 0 on an open queue too.
  size_t PopBatch(std::vector<T>* out, size_t max_batch)
      PLANAR_EXCLUDES(mu_) {
    return PopBatchLinger(out, max_batch, std::chrono::nanoseconds::zero());
  }

  /// PopBatch that lingers: waits for the first item (or close) like
  /// PopBatch — spin, then block — then, if the batch is not yet full,
  /// keeps waiting up to `linger` past the first pop for more items to
  /// coalesce with, popping greedily as they arrive. The linger wait
  /// blocks without spinning and counts as a sleeper, so a push during
  /// it signals. This is what lets a worker gather a batch worth sharing
  /// work across instead of racing away with a single request under
  /// light load. A non-positive linger behaves exactly like PopBatch.
  /// Returns the number of items popped; 0 means closed-and-drained when
  /// `max_batch` > 0.
  size_t PopBatchLinger(std::vector<T>* out, size_t max_batch,
                        std::chrono::nanoseconds linger)
      PLANAR_EXCLUDES(mu_) {
    SpinUntilPoppable();
    MutexLock lock(&mu_);
    while (!closed_ && items_.empty()) SleepLocked();
    size_t popped = PopLocked(out, max_batch);
    if (popped == 0 || popped >= max_batch ||
        linger <= std::chrono::nanoseconds::zero()) {
      return popped;
    }
    const auto deadline = std::chrono::steady_clock::now() + linger;
    while (popped < max_batch) {
      bool timed_out = false;
      while (!closed_ && items_.empty() && !timed_out) {
        timed_out = !SleepUntilLocked(deadline);
      }
      if (items_.empty()) break;  // linger expired, or closed and drained
      popped += PopLocked(out, max_batch - popped);
    }
    return popped;
  }

  /// Non-blocking variant: pops whatever is immediately available, up to
  /// `max_batch`. Used by the manual (0-worker) execution mode.
  size_t TryPopBatch(std::vector<T>* out, size_t max_batch)
      PLANAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return PopLocked(out, max_batch);
  }

  /// Rejects all future pushes and wakes every blocked consumer. Items
  /// already queued remain poppable (close-then-drain).
  void Close() PLANAR_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
      PublishLocked();
    }
    ready_.SignalAll();
  }

  /// Current number of queued items.
  size_t size() const PLANAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  /// True once Close() has been called.
  bool closed() const PLANAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  /// Maximum number of queued items.
  size_t capacity() const { return capacity_; }

 private:
  size_t PopLocked(std::vector<T>* out, size_t max_batch)
      PLANAR_REQUIRES(mu_) {
    size_t popped = 0;
    while (popped < max_batch && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++popped;
    }
    PublishLocked();
    return popped;
  }

  /// Mirrors the pop predicate into poppable_ after items_ or closed_
  /// changed; the mirror's only writer.
  void PublishLocked() PLANAR_REQUIRES(mu_) {
    poppable_.store(closed_ || !items_.empty(), std::memory_order_release);
  }

  /// Polls poppable_ without the lock until it is set or spin_budget_
  /// has passed. A hint only: the caller re-checks under mu_.
  void SpinUntilPoppable() const PLANAR_EXCLUDES(mu_) {
    const auto until = std::chrono::steady_clock::now() + spin_budget_;
    while (!poppable_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < until) {
      CpuRelax();
    }
  }

  // The two waits on ready_. Each is bracketed by sleepers_, so a
  // TryPush that reads sleepers_ == 0 under mu_ knows no consumer is
  // blocked, and any consumer that blocks later re-checks items_ first.
  void SleepLocked() PLANAR_REQUIRES(mu_) {
    ++sleepers_;
    ready_.Wait(&mu_);
    --sleepers_;
  }
  bool SleepUntilLocked(std::chrono::steady_clock::time_point deadline)
      PLANAR_REQUIRES(mu_) {
    ++sleepers_;
    const bool signaled = ready_.WaitUntil(&mu_, deadline);
    --sleepers_;
    return signaled;
  }

  const size_t capacity_;
  /// kPopSpinBudget, or zero when one CPU is usable at construction.
  const std::chrono::nanoseconds spin_budget_;
  mutable Mutex mu_{kLockRankEngineQueue};
  CondVar ready_;
  std::deque<T> items_ PLANAR_GUARDED_BY(mu_);
  bool closed_ PLANAR_GUARDED_BY(mu_) = false;
  /// Consumers blocked in SleepLocked / SleepUntilLocked.
  size_t sleepers_ PLANAR_GUARDED_BY(mu_) = 0;
  /// Lock-free mirror of `closed_ || !items_.empty()` for the spin
  /// phase; written only by PublishLocked.
  std::atomic<bool> poppable_{false};
};

}  // namespace planar

#endif  // PLANAR_ENGINE_BOUNDED_QUEUE_H_
