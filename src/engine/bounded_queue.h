// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Bounded MPMC queue backing the engine's admission control. Producers
// never wait for room: TryPush fails immediately when the queue is full
// or closed, which is what lets Engine::Submit shed load with
// kResourceExhausted instead of stalling the caller. Consumers pop in
// batches; a blocking PopBatch returns 0 only after Close() once the
// queue has drained, so workers exit cleanly without a poison pill.
//
// The data path is a lock-free ring after Vyukov's bounded MPMC queue.
// Each cell has its own sequence number and its own cache line(s); the
// producer counter tail_ and the consumer counter head_ sit on separate
// lines. The ring has n = max(capacity, 2) cells. A producer claims
// position p with a CAS on tail_, moves its item into cell p % n and
// publishes it with seq = p + 1. A consumer claims p with a CAS on head_
// once seq == p + 1, moves the item out and frees the cell for the next
// lap with seq = p + n. Three rules differ from the textbook ring:
//  - Close() sets the low bit of tail_. A push either claims its position
//    before that bit is set or fails its CAS and sees it, so no TryPush
//    succeeds after Close() returned.
//  - A cell whose previous item a consumer has claimed but not yet moved
//    out does not make the ring full. TryPush refuses only when
//    tail - head >= capacity; otherwise it waits for that one move. The
//    textbook test ("cell not free, so full") sheds pushes at any
//    occupancy while a consumer is slow inside its pop.
//  - A consumer that finds a position claimed but not yet published waits
//    for that producer's move instead of reporting the ring empty, so
//    close-then-drain never strands an admitted item.
// Both waits are on one peer's move into or out of a cell, never on
// occupancy.
//
// Consumers spin, then block. An idle consumer retries the ring for up to
// kPopSpinBudget, pausing through CpuRelax(); a consumer that loses a
// claim to another keeps spinning. Only then does it take mu_, count
// itself in sleepers_ and wait on ready_; a woken consumer gets a fresh
// spin budget. A queue constructed where only one CPU is usable never
// spins: there the producer cannot run while the consumer polls. The
// Mutex and CondVar serve sleeping only — no item passes under the lock.
// A request that arrives while a worker still spins is handed over
// without a condition-variable notify or a futex wake, which on a cheap
// request costs more than executing it.
//
// No wake-up is lost. A sleeper increments sleepers_ and then reads
// tail_, both seq_cst, holding mu_ until it waits. A producer's claim CAS
// on tail_ and its later read of sleepers_ are seq_cst too. So either the
// sleeper sees the claim and does not wait, or the producer sees the
// sleeper, takes mu_ (which the sleeper holds until it waits) and
// signals. The handshake uses seq_cst operations rather than a fence
// because ThreadSanitizer does not model standalone fences.

#ifndef PLANAR_ENGINE_BOUNDED_QUEUE_H_
#define PLANAR_ENGINE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
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

/// Lock-free bounded ring of movable items whose consumers spin briefly
/// before they block.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity),
        slots_(std::max<size_t>(capacity, 2)),
        cells_(std::make_unique<Cell[]>(slots_)),
        spin_budget_(UsableCpus() > 1 ? kPopSpinBudget
                                      : std::chrono::nanoseconds::zero()) {
    for (size_t i = 0; i < slots_; ++i) cells_[i].seq.store(i);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item` unless the queue is full or closed. Returns false
  /// (leaving `item` moved-from only on success) when the element was not
  /// admitted. Never waits for room; it may wait for a consumer that has
  /// claimed this cell's previous item to finish moving it out. Signals a
  /// consumer only when one is asleep.
  bool TryPush(T&& item) PLANAR_EXCLUDES(mu_) {
    if (capacity_ == 0) return false;
    int spins = 0;
    uint64_t tail = tail_.load(std::memory_order_acquire);
    for (;;) {
      if ((tail & kClosedBit) != 0) return false;
      const uint64_t pos = tail >> 1;
      Cell& cell = CellAt(pos);
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        // A free cell means room, except in the two-cell ring of a
        // capacity-1 queue.
        if (slots_ > capacity_ &&
            pos - head_.load(std::memory_order_acquire) >= capacity_) {
          return false;
        }
        if (tail_.compare_exchange_weak(tail, tail + 2,
                                        std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
          cell.item.emplace(std::move(item));
          cell.seq.store(pos + 1, std::memory_order_release);
          if (sleepers_.load(std::memory_order_seq_cst) > 0) WakeOne();
          return true;
        }
        continue;  // the failed CAS reloaded tail
      }
      if (seq < pos) {
        // The cell still holds the item from one lap back: queued (the
        // ring is full) or being moved out by the consumer that claimed it.
        if (pos - head_.load(std::memory_order_acquire) >= capacity_) {
          return false;
        }
        Backoff(&spins);
      }
      tail = tail_.load(std::memory_order_acquire);
    }
  }

  /// Waits until at least one item is available or the queue is closed,
  /// then moves up to `max_items` items into `out` (appended). The wait
  /// spins for up to kPopSpinBudget (not at all on one usable CPU), then
  /// blocks on the condition variable. Returns the number of items
  /// popped; 0 means closed-and-drained when `max_items` > 0. A
  /// `max_items` of 0 pops nothing and returns 0 on an open queue too.
  size_t PopBatch(std::vector<T>* out, size_t max_items)
      PLANAR_EXCLUDES(mu_) {
    if (max_items == 0 || !TakeFirst(out)) return 0;
    return 1 + TryPopBatch(out, max_items - 1);
  }

  /// Non-blocking variant: pops whatever is admitted, up to `max_items`.
  /// Used by the manual (0-worker) execution mode.
  size_t TryPopBatch(std::vector<T>* out, size_t max_items)
      PLANAR_EXCLUDES(mu_) {
    size_t popped = 0;
    while (popped < max_items && TakeOne(out) == Take::kItem) ++popped;
    return popped;
  }

  /// Rejects all future pushes and wakes every blocked consumer. Items
  /// already queued remain poppable (close-then-drain).
  void Close() PLANAR_EXCLUDES(mu_) {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    { MutexLock lock(&mu_); }
    ready_.SignalAll();
  }

  /// Current number of admitted items not yet claimed by a consumer.
  size_t size() const {
    // head first: every position a consumer claimed was admitted before,
    // so the later tail read is at least as large.
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>((tail_.load(std::memory_order_acquire) >> 1) -
                               head);
  }

  /// True once Close() has been called.
  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  /// Maximum number of queued items.
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kCacheLineBytes = 64;
  /// Low bit of tail_; the claimed-position count sits above it.
  static constexpr uint64_t kClosedBit = 1;

  struct alignas(kCacheLineBytes) Cell {
    /// pos: free for the push at pos; pos + 1: holds that push's item.
    std::atomic<uint64_t> seq{0};
    std::optional<T> item;
  };

  enum class Take { kItem, kEmpty, kClosed };

  Cell& CellAt(uint64_t pos) const {
    return cells_[static_cast<size_t>(pos % slots_)];
  }

  /// Pause in one of the ring's waits on a peer's move: CpuRelax() at
  /// first, then yield, in case that peer was descheduled mid-move.
  static void Backoff(int* spins) {
    if (++*spins < 64) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

  /// Claims the item at head_ and appends it to `out`. kEmpty / kClosed
  /// when no position is admitted past head_ (kClosed once Close() has
  /// run, which makes the answer final).
  Take TakeOne(std::vector<T>* out) {
    int spins = 0;
    uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      Cell& cell = CellAt(head);
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == head + 1) {
        if (head_.compare_exchange_weak(head, head + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
          out->push_back(std::move(*cell.item));
          cell.item.reset();
          cell.seq.store(head + slots_, std::memory_order_release);
          return Take::kItem;
        }
        continue;  // lost the claim; the failed CAS reloaded head
      }
      if (seq < head + 1) {
        const uint64_t tail = tail_.load(std::memory_order_acquire);
        if ((tail >> 1) <= head) {
          return (tail & kClosedBit) != 0 ? Take::kClosed : Take::kEmpty;
        }
        Backoff(&spins);  // admitted; its producer is still moving it in
      }
      head = head_.load(std::memory_order_acquire);
    }
  }

  /// Takes one item into `out`, spinning for up to spin_budget_ and then
  /// sleeping until a push or Close(); false once closed and drained.
  bool TakeFirst(std::vector<T>* out) PLANAR_EXCLUDES(mu_) {
    auto spin_until = std::chrono::steady_clock::now() + spin_budget_;
    for (;;) {
      const Take take = TakeOne(out);
      if (take != Take::kEmpty) return take == Take::kItem;
      if (std::chrono::steady_clock::now() < spin_until) {
        CpuRelax();
        continue;
      }
      SleepUntilPoppable();
      spin_until = std::chrono::steady_clock::now() + spin_budget_;
    }
  }

  /// An item is admitted that no consumer has claimed.
  bool Admitted() const {
    const uint64_t head = head_.load(std::memory_order_seq_cst);
    return (tail_.load(std::memory_order_seq_cst) >> 1) > head;
  }

  // The one wait on ready_. It is bracketed by sleepers_ and re-checks
  // tail_ after counting itself (see the header comment), under mu_.
  void SleepUntilPoppable() PLANAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    while (!closed() && !Admitted()) ready_.Wait(&mu_);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Called by a push that saw a sleeper: taking mu_ orders the signal
  /// after that sleeper's re-check, so it is already waiting.
  void WakeOne() PLANAR_EXCLUDES(mu_) {
    { MutexLock lock(&mu_); }
    ready_.Signal();
  }

  const size_t capacity_;
  /// Cells in the ring: capacity_, but at least two, so that a published
  /// seq (pos + 1) never reads as free for the next lap (pos + slots_).
  const size_t slots_;
  const std::unique_ptr<Cell[]> cells_;
  /// kPopSpinBudget, or zero when one CPU is usable at construction.
  const std::chrono::nanoseconds spin_budget_;
  /// Positions claimed by consumers.
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
  /// Positions claimed by producers, shifted left past kClosedBit.
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
  /// Consumers blocked in SleepUntilPoppable.
  alignas(kCacheLineBytes) std::atomic<size_t> sleepers_{0};
  mutable Mutex mu_{kLockRankEngineQueue};
  CondVar ready_;
};

}  // namespace planar

#endif  // PLANAR_ENGINE_BOUNDED_QUEUE_H_
