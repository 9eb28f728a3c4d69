// Allocation bound of the flat-arena KK core (DESIGN.md §10.3): one RCKK
// schedule() call allocates a fixed number of times whatever the request
// count.  Verified by replacing global operator new/delete with counting
// shims — which is why this test lives in its own binary
// (test_rckk_alloc) instead of test_scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "nfv/common/rng.h"
#include "nfv/scheduling/algorithm.h"

namespace {

std::uint64_t g_news = 0;  // counted single-threadedly; no atomics needed
bool g_counting = false;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nfv::sched {
namespace {

/// Allocations made by one RCKK schedule() call on n requests, m = 20,
/// with per-request delivery probabilities.
std::uint64_t rckk_allocations(std::size_t n) {
  Rng rng(n);
  SchedulingProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    p.arrival_rates.push_back(rng.uniform(1.0, 100.0));
    p.delivery_probs.push_back(rng.uniform(0.9, 1.0));
  }
  p.instance_count = 20;
  p.service_rate = 1.2 * p.total_effective_rate() / p.instance_count;
  const RckkScheduling rckk;
  g_news = 0;
  g_counting = true;
  const Schedule s = rckk.schedule(p, rng);
  g_counting = false;
  EXPECT_EQ(s.instance_of.size(), n);
  return g_news;
}

TEST(RckkAlloc, AllocationCountDoesNotGrowWithRequestCount) {
  const std::uint64_t small = rckk_allocations(16);
  const std::uint64_t large = rckk_allocations(1024);
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0u);  // the shims really counted the call
}

}  // namespace
}  // namespace nfv::sched
