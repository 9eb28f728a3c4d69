#include "nfv/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace nfv::exec {
namespace {

TEST(ExecConfig, RejectsZeroThreads) {
  ExecConfig cfg;
  cfg.threads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.threads = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceAtEveryWidth) {
  for (std::uint32_t width = 1; width <= 4; ++width) {
    ThreadPool pool(width);
    for (const std::size_t n : {2u, 3u, 5u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "width " << width << " n " << n << " index " << i;
      }
      const std::vector<std::size_t> mapped =
          pool.parallel_map(n, [](std::size_t i) { return 3 * i + 1; });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(mapped[i], 3 * i + 1);
    }
  }
}

TEST(ThreadPool, IdleWorkerTakesTheItemsQueuedBehindASlowOne) {
  // Item 0 blocks until items 1-3 have run.  Under static chunking item 1
  // shares item 0's chunk and cannot start until item 0 gives up; with
  // self-scheduling the other worker claims items 1-3 meanwhile.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int others_done = 0;
  bool released = false;
  pool.parallel_for(4, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      released = cv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return others_done == 3; });
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(released);
}

TEST(ThreadPool, AThrowingItemDoesNotStopTheOthers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("item failed");
                                   }
                                   ++hits[i];
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i == 37 ? 0 : 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelMapFillsByIndex) {
  ThreadPool pool(3);
  const std::vector<std::size_t> out =
      pool.parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int region = 0; region < 50; ++region) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
  // The failed region must not wedge the workers.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers) {
  // A nested region on a worker thread must not queue (it would deadlock
  // once every worker waits on tasks only workers can run).
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  std::atomic<int> nested_on_worker{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    pool.parallel_for(16, [&](std::size_t) { ++inner_total; });
    ++nested_on_worker;
  });
  EXPECT_EQ(inner_total.load(), 8u * 16u);
  EXPECT_EQ(nested_on_worker.load(), 8);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, FreeFunctionsRunInlineWithoutPool) {
  ASSERT_EQ(pool(), nullptr);
  std::size_t sum = 0;  // no atomics needed: must run on this thread
  parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
  const std::vector<int> mapped =
      parallel_map(4, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(mapped, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ThreadPool, ScopedPoolInstallsAndRestores) {
  ASSERT_EQ(pool(), nullptr);
  {
    ThreadPool workers(3);
    const ScopedPool scope(workers);
    EXPECT_EQ(pool(), &workers);
    std::atomic<std::size_t> covered{0};
    parallel_for(64, [&](std::size_t) { ++covered; });
    EXPECT_EQ(covered.load(), 64u);
  }
  EXPECT_EQ(pool(), nullptr);
}

TEST(ThreadPool, LocalPoolInstallsOnlyWhenNoneIsActive) {
  ASSERT_EQ(pool(), nullptr);
  {
    const LocalPool serial(1);
    EXPECT_EQ(pool(), nullptr);
  }
  {
    const LocalPool outer(3);
    ThreadPool* installed = pool();
    ASSERT_NE(installed, nullptr);
    EXPECT_EQ(installed->thread_count(), 3u);
    {
      const LocalPool inner(2);  // the outer scope's width wins
      EXPECT_EQ(pool(), installed);
    }
    EXPECT_EQ(pool(), installed);
    installed->parallel_for(4, [&](std::size_t) {
      const LocalPool on_worker(2);  // a worker's fan-outs run inline
      EXPECT_EQ(pool(), installed);
    });
  }
  EXPECT_EQ(pool(), nullptr);
}

TEST(ThreadPool, SingleWorkerAndEmptyRegionsDegradeGracefully) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::size_t sum = 0;
  pool.parallel_for(0, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum, 0u);
  pool.parallel_for(5, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 10u);
  const auto mapped = pool.parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(mapped.empty());
}

}  // namespace
}  // namespace nfv::exec
