// Tests for common/thread_pool.h: the fixed-size pool every runtime uses
// for host-side parallelism. Labeled "concurrency" in CMake so the tsan CI
// leg runs them under ThreadSanitizer.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace cim {
namespace {

TEST(ThreadPoolTest, ZeroWorkerPoolRunsEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);

  std::vector<int> hits(16, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 16);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWithZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](std::size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);

  // The pool survives: subsequent loops run normally.
  std::atomic<int> count{0};
  pool.ParallelFor(32, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, NestedParallelForIsRejected) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::atomic<bool> saw_logic_error{false};
  pool.ParallelFor(4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    try {
      pool.ParallelFor(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      saw_logic_error.store(true, std::memory_order_relaxed);
    }
  });
  EXPECT_TRUE(saw_logic_error.load());
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, WorkerStatsCountCompletedTasks) {
  // Each ParallelFor enqueues min(workers, n) helper tasks, and every
  // helper has been counted by the time the loop returns.
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) pool.ParallelFor(8, [](std::size_t) {});
  pool.ParallelFor(1, [](std::size_t) {});
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < pool.worker_count(); ++w) {
    total += pool.StatsOf(w).tasks;
  }
  EXPECT_EQ(total, 4u * 2u + 1u);
}

TEST(HardwareConcurrencyTest, ReportsAtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

}  // namespace
}  // namespace cim
