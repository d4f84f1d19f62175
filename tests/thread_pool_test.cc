// Tests for common/thread_pool.h: the fixed-size pool every runtime uses
// for host-side parallelism. Labeled "concurrency" in CMake so the tsan CI
// leg runs them under ThreadSanitizer.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
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

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnTheOuterThread) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> off_thread{0};
  pool.ParallelFor(kOuter, [&](std::size_t i) {
    const auto outer_thread = std::this_thread::get_id();
    pool.ParallelFor(kInner, [&](std::size_t j) {
      if (std::this_thread::get_id() != outer_thread) {
        off_thread.fetch_add(1, std::memory_order_relaxed);
      }
      hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }

  // An inner iteration's exception reaches the outer caller.
  EXPECT_THROW(pool.ParallelFor(kOuter,
                                [&](std::size_t i) {
                                  pool.ParallelFor(kInner, [&](std::size_t j) {
                                    if (i == 2 && j == 5) {
                                      throw std::runtime_error("inner");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, InlineLoopExceptionAbandonsRemainingIterations) {
  // Zero workers: the loop runs on the caller in index order and stops at
  // the throwing iteration.
  ThreadPool serial(0);
  std::vector<int> ran(16, 0);
  EXPECT_THROW(serial.ParallelFor(ran.size(),
                                  [&](std::size_t i) {
                                    ran[i] = 1;
                                    if (i == 5) throw std::runtime_error("x");
                                  }),
               std::runtime_error);
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 6);

  // One iteration runs on the caller even when workers exist: no helper is
  // enqueued, and its exception still reaches the caller.
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   1, [](std::size_t) { throw std::runtime_error("y"); }),
               std::runtime_error);
  for (std::size_t w = 0; w < pool.worker_count(); ++w) {
    EXPECT_EQ(pool.StatsOf(w).tasks, 0u) << "worker " << w;
  }
}

TEST(ThreadPoolTest, WorkerStatsCountCompletedTasks) {
  // Each ParallelFor over n > 1 iterations enqueues min(workers, n) helper
  // tasks, and every helper has been counted by the time the loop returns.
  // A one-iteration loop runs on the caller and enqueues none.
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) pool.ParallelFor(8, [](std::size_t) {});
  pool.ParallelFor(1, [](std::size_t) {});
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < pool.worker_count(); ++w) {
    total += pool.StatsOf(w).tasks;
  }
  EXPECT_EQ(total, 4u * 2u);
}

TEST(ThreadPoolTest, WorkersForThreadsCountsTheCaller) {
  EXPECT_EQ(WorkersForThreads(1), 0u);
  EXPECT_EQ(WorkersForThreads(4), 3u);
  EXPECT_EQ(WorkersForThreads(0), HardwareConcurrency() - 1);
}

TEST(HardwareConcurrencyTest, ReportsAtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

}  // namespace
}  // namespace cim
