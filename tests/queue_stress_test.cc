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
// and Close() ends a spinning pop at once.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <numeric>
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

}  // namespace
}  // namespace planar
