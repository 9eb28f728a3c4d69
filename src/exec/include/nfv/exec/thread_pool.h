// Deterministic parallel execution layer.
//
// A dependency-free fixed-size thread pool plus parallel_for / parallel_map
// helpers.  A region starts min(n, threads) tasks that claim item indices
// from one shared counter, so a slow item never holds up the items queued
// behind it.  Which thread runs item i is left to chance; determinism
// comes from the callers: each item writes only its own slot i and draws
// only from a stream forked for it beforehand, so the output is
// bit-identical for any thread count — the contract the joint pipeline's
// determinism tests pin down (DESIGN.md §10).
//
// Installation mirrors the obs null-sink design: fan-out sites call the
// free helpers (exec::parallel_for / exec::parallel_map), which consult a
// globally installed pool.  With no pool installed — the default — the
// helpers run inline on the calling thread: zero threads, zero allocation,
// identical results.  A scope (CLI command, bench main, JointOptimizer
// run, portfolio race) enables parallelism by installing a pool with
// LocalPool, or an existing one with ScopedPool.
//
// Nested fan-out is safe by construction: a parallel_for issued from
// inside a pool worker runs inline on that worker (counted by
// exec.nested_inline), so fanning replications out at the bench layer
// automatically serializes the per-run inner fan-outs instead of
// deadlocking on the shared queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "nfv/common/error.h"

namespace nfv::exec {

/// Execution-layer knobs, plumbed through JointConfig and the CLI/bench
/// --threads flags.
struct ExecConfig {
  /// Worker threads for the fan-out sites; 1 = serial (no pool).
  std::uint32_t threads = 1;

  void validate() const { NFV_REQUIRE(threads >= 1); }
};

/// Fixed-size worker pool.  Construction spawns the workers; destruction
/// joins them.  Thread-safe: any thread may submit parallel regions, one
/// region at a time per calling thread.
class ThreadPool {
 public:
  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// True when the calling thread is one of this process's pool workers
  /// (any pool) — such calls must run inline to avoid queue deadlock.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Invokes f(i) exactly once for every i in [0, n), fanned out over the
  /// workers: min(n, threads) tasks each claim the next unclaimed index
  /// until none is left.  Blocks until every item finishes.  The first
  /// exception thrown by any item is rethrown here (the other items still
  /// run, their exceptions are dropped).  Runs inline when n <= 1 or when
  /// called from a worker thread.
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    if (n == 0) return;
    if (n == 1 || thread_count() <= 1 || on_worker_thread()) {
      run_inline(n, f);
      return;
    }
    const std::size_t tasks =
        n < static_cast<std::size_t>(thread_count())
            ? n
            : static_cast<std::size_t>(thread_count());
    ParallelRegion region(tasks);
    for (std::size_t t = 0; t < tasks; ++t) {
      submit([&region, &f, n] {
        for (std::size_t i = region.claim(); i < n; i = region.claim()) {
          try {
            f(i);
          } catch (...) {
            region.capture_exception(std::current_exception());
          }
        }
        region.finish_task();
      });
    }
    region.wait_and_rethrow();
    note_region(n, tasks);
  }

  /// parallel_for that collects f(i) into slot i of the returned vector —
  /// result order is index order, independent of the thread count.
  template <typename F>
  auto parallel_map(std::size_t n, F&& f) -> std::vector<decltype(f(std::size_t{0}))> {
    std::vector<decltype(f(std::size_t{0}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
    return out;
  }

 private:
  /// Shared item counter, completion barrier and first-exception store
  /// for one parallel region.
  class ParallelRegion {
   public:
    explicit ParallelRegion(std::size_t tasks) : remaining_(tasks) {}
    /// The next unclaimed item index; n or more once all are claimed.
    std::size_t claim() noexcept {
      return next_.fetch_add(1, std::memory_order_relaxed);
    }
    void capture_exception(std::exception_ptr e);
    void finish_task();
    void wait_and_rethrow();

   private:
    std::atomic<std::size_t> next_{0};
    std::mutex mu_;
    std::condition_variable done_;
    std::size_t remaining_;
    std::exception_ptr first_error_;
  };

  template <typename F>
  static void run_inline(std::size_t n, F& f) {
    note_inline(n);
    for (std::size_t i = 0; i < n; ++i) f(i);
  }

  void submit(std::function<void()> task);
  void worker_loop();
  static void note_region(std::size_t items, std::size_t tasks);
  static void note_inline(std::size_t items);

  std::mutex mu_;
  std::condition_variable ready_;
  std::vector<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The globally installed pool, or nullptr when parallelism is disabled.
[[nodiscard]] ThreadPool* pool() noexcept;

/// Installs (or clears, with nullptr) the global pool; returns the
/// previous one.  Not synchronized against in-flight helpers — install
/// before the fanned-out work starts and uninstall after it ends.
ThreadPool* set_pool(ThreadPool* p) noexcept;

/// RAII install/uninstall of a pool as the global fan-out target.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& p) : prev_(set_pool(&p)) {}
  ~ScopedPool() { set_pool(prev_); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* prev_;
};

/// Owns and installs a pool of `threads` workers for the caller's scope —
/// unless `threads` is 1, a pool is already installed (the outer scope's
/// width wins, so nested runs share one fan-out), or the caller is a pool
/// worker (its fan-outs run inline anyway).  Then it does nothing.
class LocalPool {
 public:
  explicit LocalPool(std::uint32_t threads) {
    if (threads > 1 && pool() == nullptr && !ThreadPool::on_worker_thread()) {
      local_.emplace(threads);
      scope_.emplace(*local_);
    }
  }

 private:
  std::optional<ThreadPool> local_;
  std::optional<ScopedPool> scope_;
};

// ---------------------------------------------------------------------------
// Fast-path helpers: one relaxed atomic load, then either the installed
// pool's fan-out or a plain inline loop.
// ---------------------------------------------------------------------------

template <typename F>
void parallel_for(std::size_t n, F&& f) {
  if (ThreadPool* p = pool()) {
    p->parallel_for(n, std::forward<F>(f));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) f(i);
}

template <typename F>
auto parallel_map(std::size_t n, F&& f) -> std::vector<decltype(f(std::size_t{0}))> {
  std::vector<decltype(f(std::size_t{0}))> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace nfv::exec
