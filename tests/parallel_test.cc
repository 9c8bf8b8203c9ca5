// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The exactly-once contract of ThreadPool::ParallelFor on the shared pool
// every library fan-out runs on.

#include "common/thread_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace planar {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(1000);
  ThreadPool::Shared().ParallelFor(
      1000, [&](size_t i) { counts[i].fetch_add(1); }, 4);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  ThreadPool::Shared().ParallelFor(0, [&](size_t) { FAIL(); }, 4);
}

TEST(ParallelForTest, SingleThreadPath) {
  std::vector<int> order;
  ThreadPool::Shared().ParallelFor(
      5, [&](size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::atomic<int> total{0};
  ThreadPool::Shared().ParallelFor(3, [&](size_t) { total.fetch_add(1); }, 16);
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelForTest, ExactlyOnceAccountingAcrossDegenerateShapes) {
  // Every (n, threads) shape must invoke fn exactly once per index:
  // n == 0, threads == 1, threads == n, threads > n, the hardware default
  // (threads == 0), and chunk sizes that do not divide n evenly.
  const size_t sizes[] = {0, 1, 2, 3, 16, 17, 1000};
  const size_t thread_counts[] = {0, 1, 2, 3, 7, 16, 64};
  for (size_t n : sizes) {
    for (size_t threads : thread_counts) {
      std::vector<std::atomic<int>> counts(n);
      ThreadPool::Shared().ParallelFor(
          n, [&](size_t i) { counts[i].fetch_add(1); }, threads);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1)
            << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroItemsNeverInvokesWithAnyThreadCount) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{8}}) {
    ThreadPool::Shared().ParallelFor(
        0, [&](size_t) { FAIL() << "fn invoked for n == 0"; }, threads);
  }
}

TEST(UsableCpusTest, CountsTheCallersAffinityMask) {
  EXPECT_GE(UsableCpus(), 1u);
#if defined(__linux__)
  // A thread pinned to one core may run on exactly one CPU; this is what
  // makes BoundedQueue skip its spin phase under taskset or a one-CPU
  // cpuset. Pin to the first CPU the caller may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &allowed)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  bool pinned_ok = false;
  size_t pinned_cpus = 0;
  std::thread pinned([first, &pinned_ok, &pinned_cpus] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    pinned_ok = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    pinned_cpus = UsableCpus();
  });
  pinned.join();
  if (!pinned_ok) GTEST_SKIP() << "could not pin a thread to CPU " << first;
  EXPECT_EQ(pinned_cpus, 1u);
#else
  GTEST_SKIP() << "no thread affinity here";
#endif
}

}  // namespace
}  // namespace planar
