// Fixed-size thread pool for host-side parallelism.
//
// The simulator exploits host threads the way the modeled hardware exploits
// crossbar parallelism: independent engine tiles (and independent batch
// elements) run concurrently. The pool is deliberately work-stealing-free —
// a mutex-protected FIFO plus a shared index counter for ParallelFor — so
// its behaviour is easy to reason about under ThreadSanitizer and its
// scheduling never influences simulation results (all RNG streams are
// derived per work item, never per thread; see DESIGN.md § Threading and
// determinism).
//
// This header is the only place in the repository allowed to touch
// std::thread (enforced by the cimlint `raw-thread` rule): every other
// component expresses parallelism through Submit/ParallelFor so that
// shutdown, exception propagation and utilization accounting stay in one
// audited spot.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace cim {

// Host parallelism available to simulation runtimes; at least 1. Wrapped
// here so std::thread stays confined to this header (cimlint `raw-thread`).
[[nodiscard]] inline std::size_t HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

class ThreadPool {
 public:
  // Per-worker counters since construction, exposed so the runtime's load
  // balancer can see real utilization instead of guessed numbers.
  struct WorkerStats {
    std::uint64_t tasks = 0;
    double busy_ns = 0.0;
  };

  // `workers` background threads. The caller of ParallelFor participates in
  // the loop as well, so total concurrency is workers + 1. A pool with zero
  // workers is valid: ParallelFor runs entirely on the caller and Submit
  // executes inline — the serial fallback used by batch-1 configurations.
  explicit ThreadPool(std::size_t workers)
      : slots_(workers > 0 ? std::make_unique<Slot[]>(workers) : nullptr),
        worker_count_(workers),
        start_time_(std::chrono::steady_clock::now()) {
    threads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains every already-submitted task, then joins all workers. Safe to
  // destroy while ParallelFor helpers are queued (the caller of ParallelFor
  // always returns before the pool can be destroyed on another thread —
  // the pool is not itself thread-safe against concurrent destruction).
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }

  // True while the current thread is executing inside any pool's worker
  // task or ParallelFor drain loop. Used by callers to pick the serial path
  // instead of nesting parallel regions (nested ParallelFor throws).
  [[nodiscard]] static bool InParallelRegion() { return tl_in_parallel_; }

  // Enqueue one task and return a future for its result. With zero workers
  // the task runs inline on the calling thread.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (worker_count_ == 0) {
      (*task)();
      return future;
    }
    Enqueue([task] { (*task)(); });
    return future;
  }

  // Run body(i) for every i in [0, n). Blocks until all iterations finish.
  // The calling thread participates, so the call makes progress even with
  // zero workers. The first exception thrown by any iteration is rethrown
  // on the calling thread after every in-flight iteration has completed;
  // remaining unclaimed iterations are abandoned.
  //
  // Nested calls (from inside a pool task or another ParallelFor) throw
  // std::logic_error: nesting would deadlock-prone-ly tie up workers, and
  // every caller in this codebase has a serial fallback instead.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
    if (tl_in_parallel_) {
      throw std::logic_error(
          "nested ThreadPool::ParallelFor (use the serial path when "
          "InParallelRegion() is true)");
    }
    if (n == 0) return;
    auto state = std::make_shared<LoopState>();
    state->n = n;
    state->body = &body;

    const std::size_t helpers =
        worker_count_ < n ? worker_count_ : n;
    state->pending_helpers.store(helpers, std::memory_order_relaxed);
    for (std::size_t h = 0; h < helpers; ++h) {
      Enqueue([state] {
        Drain(*state);
        if (state->pending_helpers.fetch_sub(1,
                                             std::memory_order_acq_rel) ==
            1) {
          std::lock_guard<std::mutex> lock(state->done_mutex);
          state->done_cv.notify_all();
        }
      });
    }

    tl_in_parallel_ = true;
    Drain(*state);
    tl_in_parallel_ = false;

    {
      std::unique_lock<std::mutex> lock(state->done_mutex);
      state->done_cv.wait(lock, [&] {
        return state->pending_helpers.load(std::memory_order_acquire) == 0;
      });
    }
    if (state->exception) std::rethrow_exception(state->exception);
  }

  // Counters for worker `w` (0 <= w < worker_count()).
  [[nodiscard]] WorkerStats StatsOf(std::size_t w) const {
    WorkerStats stats;
    stats.tasks = slots_[w].tasks.load(std::memory_order_relaxed);
    stats.busy_ns = static_cast<double>(
        slots_[w].busy_ns.load(std::memory_order_relaxed));
    return stats;
  }

  // Fraction of wall-clock time worker `w` spent executing tasks since the
  // pool was constructed, clamped to [0, 1].
  [[nodiscard]] double Utilization(std::size_t w) const {
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_time_)
                          .count();
    if (wall <= 0) return 0.0;
    const double fraction =
        StatsOf(w).busy_ns / static_cast<double>(wall);
    return fraction > 1.0 ? 1.0 : fraction;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  struct LoopState {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> aborted{false};
    std::atomic<std::size_t> pending_helpers{0};
    std::mutex exception_mutex;
    std::exception_ptr exception;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  static void Drain(LoopState& state) {
    while (!state.aborted.load(std::memory_order_acquire)) {
      const std::size_t i =
          state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state.n) break;
      try {
        (*state.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.exception_mutex);
        if (!state.exception) state.exception = std::current_exception();
        state.aborted.store(true, std::memory_order_release);
      }
    }
  }

  void Enqueue(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    queue_cv_.notify_one();
  }

  void WorkerLoop(std::size_t w) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      const auto begin = std::chrono::steady_clock::now();
      tl_in_parallel_ = true;
      // Counted before the body runs: task() may fulfil a Submit future,
      // and a caller returning from .get() must observe this task in the
      // worker's totals.
      slots_[w].tasks.fetch_add(1, std::memory_order_relaxed);
      task();  // packaged_task / Drain absorb exceptions
      tl_in_parallel_ = false;
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin)
              .count();
      slots_[w].busy_ns.fetch_add(static_cast<std::uint64_t>(elapsed),
                                  std::memory_order_relaxed);
    }
  }

  static thread_local bool tl_in_parallel_;

  std::unique_ptr<Slot[]> slots_;
  std::size_t worker_count_;
  std::chrono::steady_clock::time_point start_time_;
  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

inline thread_local bool ThreadPool::tl_in_parallel_ = false;

}  // namespace cim
