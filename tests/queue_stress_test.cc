// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Race stress for BoundedQueue::PopBatchLinger — the linger path claims
// a first item, then keeps the mutex/condvar cycle alive waiting for
// coalescing partners while producers keep pushing and Drain-style
// consumers (Close + TryPopBatch) race it for the remainder. Meant to
// run under ThreadSanitizer (tsan preset; wired into the CI tsan stress
// regex next to engine_stress_test). The functional contract asserted
// here is exactly-once delivery: every admitted item is popped by
// precisely one consumer, across lingering poppers, non-lingering
// poppers, and the drain helper. The spin-then-block cases check the
// wake-up accounting: a consumer that has given up spinning and sleeps
// (in the first-item wait or the linger wait) is still woken by a push,
// and Close() ends a spinning pop at once. The ring cases pin the
// lock-free data path: a consumer stalled inside its pop never makes a
// push below capacity fail, the capacity is exact, and Close() racing
// producers admits nothing after it returns and loses nothing before.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/bounded_queue.h"

namespace planar {
namespace {

using std::chrono::steady_clock;

// Runs `pop` (one blocking pop on `queue`) on a thread that is well past
// its spin budget when the item arrives: the only way it can see the item
// is a signal from TryPush. Returns what the pop returned and collected;
// a lost wake-up shows as an empty batch, because the timeout path
// releases the consumer with Close() instead of hanging the test.
template <typename Pop>
std::vector<int> PushAfterSpinBudget(BoundedQueue<int>* queue, Pop pop) {
  std::vector<int> batch;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    started.store(true);
    pop(&batch);
    done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  static_assert(kPopSpinBudget < std::chrono::milliseconds(5));
  EXPECT_TRUE(queue->TryPush(7));
  const auto give_up = steady_clock::now() + std::chrono::seconds(10);
  while (!done.load() && steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done.load()) << "the push did not wake the sleeping consumer";
  queue->Close();
  consumer.join();
  return batch;
}

TEST(QueueStressTest, PopBatchLingerDeliversEveryAdmittedItemExactlyOnce) {
  constexpr size_t kProducers = 3;
  constexpr size_t kLingerConsumers = 2;
  constexpr size_t kEagerConsumers = 1;
  constexpr uint64_t kItemsPerProducer = 4000;
  constexpr size_t kMaxBatch = 8;

  // A small capacity keeps the queue bouncing between full (producers
  // spin on TryPush) and empty (consumers linger), which is where the
  // PopBatchLinger wait/relock cycle interleaves with Push and Close.
  BoundedQueue<uint64_t> queue(32);

  std::vector<std::vector<uint64_t>> popped(kLingerConsumers +
                                            kEagerConsumers + 1);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kLingerConsumers; ++c) {
    consumers.emplace_back([&queue, &popped, c] {
      std::vector<uint64_t> batch;
      while (queue.PopBatchLinger(&batch, kMaxBatch,
                                  std::chrono::microseconds(200)) > 0) {
        popped[c].insert(popped[c].end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
  }
  for (size_t c = 0; c < kEagerConsumers; ++c) {
    const size_t slot = kLingerConsumers + c;
    consumers.emplace_back([&queue, &popped, slot] {
      std::vector<uint64_t> batch;
      while (queue.PopBatch(&batch, kMaxBatch) > 0) {
        popped[slot].insert(popped[slot].end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
  }

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (uint64_t i = 0; i < kItemsPerProducer; ++i) {
        uint64_t value = p * kItemsPerProducer + i;
        while (!queue.TryPush(std::move(value))) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // Drain exactly the way Engine::Drain does: Close() (wakes lingering
  // consumers mid-wait), then a TryPopBatch helper races the consumers
  // for whatever they have not yet claimed.
  queue.Close();
  const size_t drain_slot = kLingerConsumers + kEagerConsumers;
  std::vector<uint64_t> drain_batch;
  while (queue.TryPopBatch(&drain_batch, kMaxBatch) > 0) {
    popped[drain_slot].insert(popped[drain_slot].end(), drain_batch.begin(),
                              drain_batch.end());
    drain_batch.clear();
  }
  for (std::thread& t : consumers) t.join();

  std::vector<uint64_t> all;
  all.reserve(kProducers * kItemsPerProducer);
  for (const std::vector<uint64_t>& one : popped) {
    all.insert(all.end(), one.begin(), one.end());
  }
  ASSERT_EQ(all.size(), kProducers * kItemsPerProducer);
  std::sort(all.begin(), all.end());
  std::vector<uint64_t> expected(kProducers * kItemsPerProducer);
  std::iota(expected.begin(), expected.end(), uint64_t{0});
  EXPECT_EQ(all, expected);
}

TEST(QueueStressTest, CloseInterruptsAnActiveLinger) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));

  // With one item claimed, a generous linger and room for more, the
  // consumer sits in the linger wait; Close() must wake it promptly
  // with the partial batch instead of letting it sleep out the linger.
  const auto start = steady_clock::now();
  std::vector<int> batch;
  std::thread consumer([&queue, &batch] {
    (void)queue.PopBatchLinger(&batch, 4, std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Close();
  consumer.join();
  const auto elapsed = steady_clock::now() - start;

  EXPECT_EQ(batch, std::vector<int>({1}));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // Closed-and-drained: the next pop reports 0 without blocking.
  std::vector<int> empty;
  EXPECT_EQ(queue.PopBatchLinger(&empty, 4, std::chrono::seconds(30)), 0u);
}

TEST(QueueStressTest, LingerCoalescesItemsPushedAfterTheFirstPop) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));

  std::vector<int> batch;
  std::thread consumer([&queue, &batch] {
    (void)queue.PopBatchLinger(&batch, 3, std::chrono::seconds(30));
  });
  // The consumer has (or will) claim item 1 and linger for partners.
  // These arrive while it waits; reaching max_batch ends the linger
  // long before the 30s cap, proving the wait loop re-polls pushes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(queue.TryPush(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(queue.TryPush(3));
  consumer.join();
  queue.Close();

  EXPECT_EQ(batch, std::vector<int>({1, 2, 3}));
}

TEST(QueueStressTest, PushAfterTheSpinBudgetWakesABlockedPopBatch) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(PushAfterSpinBudget(&queue,
                                [&queue](std::vector<int>* batch) {
                                  (void)queue.PopBatch(batch, 4);
                                }),
            std::vector<int>({7}));
}

TEST(QueueStressTest, PushAfterTheSpinBudgetWakesABlockedPopBatchLinger) {
  // No linger: the consumer sleeps in the first-item wait.
  BoundedQueue<int> queue(8);
  EXPECT_EQ(PushAfterSpinBudget(&queue,
                                [&queue](std::vector<int>* batch) {
                                  (void)queue.PopBatchLinger(
                                      batch, 4, std::chrono::nanoseconds(0));
                                }),
            std::vector<int>({7}));
}

TEST(QueueStressTest, CloseDuringTheSpinPhaseReturnsPromptly) {
  // Each round closes the queue as soon as the consumer is about to pop,
  // so most closes land inside its spin; every pop must see the close
  // and report closed-and-drained instead of sleeping.
  for (int round = 0; round < 200; ++round) {
    BoundedQueue<int> queue(4);
    std::atomic<bool> started{false};
    size_t popped = 1;
    std::thread consumer([&] {
      std::vector<int> batch;
      started.store(true);
      popped = round % 2 == 0
                   ? queue.PopBatch(&batch, 4)
                   : queue.PopBatchLinger(&batch, 4, std::chrono::seconds(30));
    });
    while (!started.load()) std::this_thread::yield();
    const auto start = steady_clock::now();
    queue.Close();
    consumer.join();
    EXPECT_EQ(popped, 0u) << "round " << round;
    EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(5))
        << "round " << round;
  }
}

TEST(QueueStressTest, PushDuringALingerWaitIsCoalesced) {
  // The consumer claims item 1 and sleeps in the linger wait (which does
  // not spin). Item 2 arrives there; the push must signal, because the
  // linger wait counts as a sleeper, so the batch fills long before the
  // 20 s linger runs out.
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));
  std::vector<int> batch;
  std::atomic<bool> started{false};
  std::thread consumer([&queue, &batch, &started] {
    started.store(true);
    (void)queue.PopBatchLinger(&batch, 2, std::chrono::seconds(20));
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto pushed = steady_clock::now();
  EXPECT_TRUE(queue.TryPush(2));
  consumer.join();
  EXPECT_LT(steady_clock::now() - pushed, std::chrono::seconds(5));
  EXPECT_EQ(batch, std::vector<int>({1, 2}));
  queue.Close();
}

// An item whose move stalls, for one marked value, on a thread that asked
// for it: the stall lands inside that thread's pop, after it claimed the
// cell and before it freed it.
constexpr int kStalledValue = -1;
thread_local bool t_stall_moves = false;
std::atomic<bool> g_stalled_inside{false};
std::atomic<bool> g_gate_open{false};

struct Gated {
  int value = 0;

  Gated() = default;
  explicit Gated(int v) : value(v) {}
  Gated(Gated&& other) noexcept : value(other.value) { MaybeStall(); }
  Gated& operator=(Gated&& other) noexcept {
    value = other.value;
    MaybeStall();
    return *this;
  }

  void MaybeStall() const {
    if (value != kStalledValue || !t_stall_moves) return;
    g_stalled_inside.store(true);
    while (!g_gate_open.load()) std::this_thread::yield();
  }
};

TEST(QueueStressTest, AConsumerStalledInItsPopNeverShedsAPushBelowCapacity) {
  constexpr size_t kCapacity = 4;
  constexpr int kLaps = 6;
  g_stalled_inside.store(false);
  g_gate_open.store(false);
  BoundedQueue<Gated> queue(kCapacity);
  ASSERT_TRUE(queue.TryPush(Gated(kStalledValue)));

  std::vector<Gated> stalled_batch;
  std::thread stalled([&] {
    t_stall_moves = true;
    (void)queue.PopBatch(&stalled_batch, 1);
  });
  while (!g_stalled_inside.load()) std::this_thread::yield();

  // The other consumer drains everything else as it arrives.
  std::vector<int> drained;
  std::thread drainer([&] {
    std::vector<Gated> batch;
    while (queue.PopBatch(&batch, 1) > 0) {
      for (const Gated& g : batch) drained.push_back(g.value);
      batch.clear();
    }
  });
  // Opens the gate long after the producer reaches the stalled cell again
  // (position kCapacity). Until then that push must wait, not fail.
  std::thread opener([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    g_gate_open.store(true);
  });

  std::vector<std::string> shed;
  const int pushes = static_cast<int>(kCapacity) * kLaps;
  for (int i = 0; i < pushes; ++i) {
    // At most one item queued (the drainer takes each before the next
    // push), so every push is far below capacity.
    while (queue.size() > 0) std::this_thread::yield();
    const size_t occupancy = queue.size();
    if (!queue.TryPush(Gated(i))) {
      shed.push_back("push " + std::to_string(i) + " at occupancy " +
                     std::to_string(occupancy));
    }
  }
  queue.Close();
  stalled.join();
  drainer.join();
  opener.join();

  EXPECT_TRUE(shed.empty()) << shed.size() << " pushes shed, first: "
                            << (shed.empty() ? "" : shed.front());
  ASSERT_EQ(stalled_batch.size(), 1u);
  EXPECT_EQ(stalled_batch[0].value, kStalledValue);
  std::vector<int> expected(static_cast<size_t>(pushes));
  std::iota(expected.begin(), expected.end(), 0);
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, expected);
}

TEST(QueueStressTest, CapacityIsExactOverSeveralLaps) {
  for (const size_t capacity : {size_t{1}, size_t{3}, size_t{1000}}) {
    BoundedQueue<int> queue(capacity);
    EXPECT_EQ(queue.capacity(), capacity);
    int next = 0;
    std::vector<int> batch;
    for (int lap = 0; lap < 3; ++lap) {
      for (size_t i = 0; i < capacity; ++i) {
        ASSERT_TRUE(queue.TryPush(int{next++}))
            << "capacity " << capacity << " lap " << lap << " item " << i;
      }
      EXPECT_EQ(queue.size(), capacity);
      EXPECT_FALSE(queue.TryPush(int{-1})) << "capacity " << capacity;
      // One out makes room for exactly one in.
      batch.clear();
      ASSERT_EQ(queue.TryPopBatch(&batch, 1), 1u);
      EXPECT_TRUE(queue.TryPush(int{next++}));
      EXPECT_FALSE(queue.TryPush(int{-1})) << "capacity " << capacity;
      EXPECT_EQ(queue.size(), capacity);
      // Drain in admission order.
      const int first = batch[0];
      batch.clear();
      ASSERT_EQ(queue.TryPopBatch(&batch, capacity + 1), capacity);
      EXPECT_EQ(queue.size(), 0u);
      std::vector<int> expected(capacity);
      std::iota(expected.begin(), expected.end(), first + 1);
      EXPECT_EQ(batch, expected) << "capacity " << capacity;
    }
  }
}

TEST(QueueStressTest, CloseRacingPushesAdmitsNothingAfterItReturns) {
  constexpr size_t kProducers = 4;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<uint64_t> queue(64);
    std::atomic<bool> go{false};
    std::atomic<bool> close_returned{false};
    std::atomic<size_t> admitted_after_close{0};
    std::vector<std::vector<uint64_t>> admitted(kProducers);
    std::vector<uint64_t> popped;
    std::thread consumer([&] {
      std::vector<uint64_t> batch;
      while (queue.PopBatch(&batch, 8) > 0) {
        popped.insert(popped.end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        while (!go.load()) std::this_thread::yield();
        for (uint64_t i = 0;; ++i) {
          // Read before the push: a push that starts after Close()
          // returned must fail.
          const bool after_close = close_returned.load();
          if (queue.TryPush((uint64_t{p} << 32) | i)) {
            admitted[p].push_back((uint64_t{p} << 32) | i);
            if (after_close) admitted_after_close.fetch_add(1);
          } else if (after_close) {
            break;
          }
        }
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 5)));
    queue.Close();
    close_returned.store(true);
    for (std::thread& t : producers) t.join();
    consumer.join();

    EXPECT_EQ(admitted_after_close.load(), 0u) << "round " << round;
    std::vector<uint64_t> all;
    for (const std::vector<uint64_t>& one : admitted) {
      all.insert(all.end(), one.begin(), one.end());
    }
    std::sort(all.begin(), all.end());
    std::sort(popped.begin(), popped.end());
    EXPECT_EQ(popped, all) << "round " << round;
  }
}

}  // namespace
}  // namespace planar
