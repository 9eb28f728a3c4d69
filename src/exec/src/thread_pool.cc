#include "nfv/exec/thread_pool.h"

#include <atomic>

#include "nfv/obs/metrics.h"

namespace nfv::exec {

namespace {

std::atomic<ThreadPool*> g_pool{nullptr};

/// Set for the lifetime of every worker thread, of any pool: nested
/// parallel regions detect they are already inside a fan-out and run
/// inline instead of re-entering the shared queue.
thread_local bool t_on_worker = false;

}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

ThreadPool::ThreadPool(std::uint32_t threads) {
  NFV_REQUIRE(threads >= 1);
  workers_.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::count("exec.pools_created");
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }
    task();
  }
}

void ThreadPool::ParallelRegion::capture_exception(std::exception_ptr e) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_) first_error_ = std::move(e);
}

void ThreadPool::ParallelRegion::finish_task() {
  // Notify while holding the lock: the waiter may return and destroy the
  // region (it lives on the submitting thread's stack) as soon as it can
  // take mu_ and see remaining_ == 0, so done_ must not be touched after
  // the unlock.
  const std::lock_guard<std::mutex> lock(mu_);
  if (--remaining_ == 0) done_.notify_all();
}

void ThreadPool::ParallelRegion::wait_and_rethrow() {
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [this] { return remaining_ == 0; });
  if (first_error_) {
    obs::count("exec.regions_failed");
    std::rethrow_exception(first_error_);
  }
}

void ThreadPool::note_region(std::size_t items, std::size_t tasks) {
  obs::count("exec.regions");
  obs::count("exec.tasks", tasks);
  obs::count("exec.items", items);
}

void ThreadPool::note_inline(std::size_t items) {
  if (t_on_worker) {
    obs::count("exec.nested_inline");
  } else {
    obs::count("exec.inline_regions");
  }
  obs::count("exec.items", items);
}

ThreadPool* pool() noexcept {
  return g_pool.load(std::memory_order_acquire);
}

ThreadPool* set_pool(ThreadPool* p) noexcept {
  return g_pool.exchange(p, std::memory_order_acq_rel);
}

}  // namespace nfv::exec
