// Allocation bound of the serve decision path (DESIGN.md §11.4): once an
// engine is warm, a rate change — availability integrals, the RCKK
// re-solve and bounded-migration plan of every touched VNF, relocation
// checks, the Eq. 16 mean and p99 — allocates nothing, however many
// requests are live.  Verified by replacing global operator new/delete
// with counting shims, which is why this test lives in its own binary
// (test_serve_alloc) instead of test_serve.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "nfv/serve/engine.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/event_stream.h"

namespace {

std::uint64_t g_news = 0;  // counted single-threadedly; no atomics needed
bool g_counting = false;

}  // namespace

// new and the unsized delete stay out of line, and the other deletes forward
// to the unsized one, so GCC sees no malloc freed by a mismatched delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace nfv::serve {
namespace {

constexpr std::uint32_t kVnfs = 6;
constexpr std::size_t kWarmOscillations = 3000;
constexpr std::size_t kMeasured = 200;

topo::Topology make_topo() {
  topo::Topology t;
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(t.add_compute(40.0));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

std::vector<workload::Vnf> make_vnfs() {
  std::vector<workload::Vnf> vnfs(kVnfs);
  for (std::uint32_t f = 0; f < kVnfs; ++f) {
    vnfs[f].id = VnfId(f);
    vnfs[f].demand_per_instance = 1.0;
    vnfs[f].service_rate = 100.0;
  }
  return vnfs;
}

/// Small deterministic generator (no shared state with the engine).
struct Lcg {
  std::uint64_t state;
  double next01() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

/// `live` arrivals packing the instances, one rate change per request
/// halving its rate (so every instance sits well under its limit and no
/// rate change below has to relocate or scale out), then a stream of
/// rate changes that wiggle each rate by up to ±20% around its half.
workload::EventTrace make_trace(std::uint32_t live) {
  workload::EventTrace trace;
  trace.vnf_count = kVnfs;
  Lcg rng{live};
  std::vector<double> base(live);
  double t = 0.0;
  for (std::uint32_t r = 0; r < live; ++r) {
    workload::StreamEvent e;
    e.time = t += 0.001;
    e.kind = workload::StreamEventKind::kArrive;
    e.request = r;
    base[r] = 1.0 + 9.0 * rng.next01();
    e.rate = base[r];
    e.delivery_prob = 0.9 + 0.1 * rng.next01();
    e.chain = {r % kVnfs, (r + 1) % kVnfs, (r + 3) % kVnfs};
    trace.events.push_back(e);
  }
  for (std::uint32_t r = 0; r < live; ++r) {
    workload::StreamEvent e;
    e.time = t += 0.001;
    e.kind = workload::StreamEventKind::kRateChange;
    e.request = r;
    e.rate = 0.5 * base[r];
    trace.events.push_back(e);
  }
  for (std::size_t k = 0; k < kWarmOscillations + 4 * kMeasured; ++k) {
    workload::StreamEvent e;
    e.time = t += 0.001;
    e.kind = workload::StreamEventKind::kRateChange;
    e.request = static_cast<std::uint32_t>(rng.next01() * live);
    e.rate = 0.5 * base[e.request] * (0.8 + 0.4 * rng.next01());
    trace.events.push_back(e);
  }
  return trace;
}

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t rebalances = 0;  ///< rebalances that moved requests
};

/// Allocations made by kMeasured rate-change events at `live` live
/// requests, after a warm-up that sized every engine-owned buffer.
Window measure(std::uint32_t live) {
  const workload::EventTrace trace = make_trace(live);
  const std::string binary = workload::save_binary_trace_string(trace);
  workload::BinaryTraceDecoder decoder(binary);
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.05;  // RCKK + migration on most events
  ServeEngine engine(make_topo(), make_vnfs(), cfg);

  const std::uint64_t warm = 2ull * live + kWarmOscillations;
  EXPECT_EQ(engine.replay(decoder, warm), warm);
  // The outcome log grows geometrically — amortized, and independent of
  // the live population.  Start the window with room for it, so the
  // count below isolates the decision path.
  for (int k = 0; k < 3; ++k) {
    if (engine.log().capacity() - engine.log().size() >= kMeasured) break;
    EXPECT_EQ(engine.replay(decoder, kMeasured), kMeasured);
  }
  EXPECT_GE(engine.log().capacity() - engine.log().size(), kMeasured);
  EXPECT_EQ(engine.summary().live_requests, live);
  const std::uint64_t rebalances_before = engine.summary().rebalances;

  g_news = 0;
  g_counting = true;
  const std::uint64_t applied = engine.replay(decoder, kMeasured);
  g_counting = false;
  EXPECT_EQ(applied, kMeasured);

  const ServeSummary after = engine.summary();
  EXPECT_EQ(after.live_requests, live);
  EXPECT_EQ(after.shed, 0u);
  return {g_news, after.rebalances - rebalances_before};
}

TEST(ServeAlloc, WarmRateChangesAllocateNothingAtAnyPopulation) {
  const Window small = measure(40);
  const Window large = measure(400);
  // The window really ran the rebalance path at both sizes.
  EXPECT_GT(small.rebalances, 0u);
  EXPECT_GT(large.rebalances, 0u);
  EXPECT_EQ(small.allocations, large.allocations);
  EXPECT_EQ(small.allocations, 0u);
  EXPECT_EQ(large.allocations, 0u);
}

}  // namespace
}  // namespace nfv::serve
