// Property: the serving engine is a deterministic state machine — replaying
// any prefix of any trace twice yields bit-identical state, regardless of
// the installed thread pool (DESIGN.md §10/§11).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/workload/generator.h"

namespace nfv::serve {
namespace {

topo::Topology make_topo() {
  topo::Topology t;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(t.add_compute(2000.0 + 300.0 * i));
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

struct Fixture {
  workload::Workload base;
  workload::EventTrace trace;
};

Fixture make_fixture(std::uint64_t seed) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(seed);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 250;
  Rng srng(seed + 100);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeEngine fresh_engine(const Fixture& fx) {
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.15;
  return ServeEngine(make_topo(), fx.base.vnfs, cfg);
}

TEST(ServeReplayProperty, AnyPrefixReplayedTwiceIsIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const Fixture fx = make_fixture(seed);
    for (const std::size_t prefix : {1ul, 10ul, 63ul, 137ul, 250ul}) {
      workload::EventTrace cut;
      cut.vnf_count = fx.trace.vnf_count;
      cut.events.assign(fx.trace.events.begin(),
                        fx.trace.events.begin() +
                            static_cast<std::ptrdiff_t>(prefix));
      ServeEngine a = fresh_engine(fx);
      ServeEngine b = fresh_engine(fx);
      const auto log_a = a.replay(cut);
      const auto log_b = b.replay(cut);
      EXPECT_TRUE(a.snapshot() == b.snapshot())
          << "seed " << seed << " prefix " << prefix;
      EXPECT_EQ(a.work(), b.work());
      ASSERT_EQ(log_a.size(), log_b.size());
      for (std::size_t i = 0; i < log_a.size(); ++i) {
        EXPECT_EQ(log_a[i].decision, log_b[i].decision);
        EXPECT_EQ(log_a[i].migrations, log_b[i].migrations);
        EXPECT_EQ(log_a[i].mean_predicted_latency,
                  log_b[i].mean_predicted_latency);
      }
    }
  }
}

// replay, on_event and apply_batch (in uneven chunks) are one state
// machine: the final checkpoints, which carry the log, the live state and
// the work counter, are byte-identical.
TEST(ServeReplayProperty, IncrementalEventsMatchBulkReplay) {
  const Fixture fx = make_fixture(3);
  ServeEngine bulk = fresh_engine(fx);
  ServeEngine stepped = fresh_engine(fx);
  ServeEngine batched = fresh_engine(fx);
  bulk.replay(fx.trace);
  for (const workload::StreamEvent& e : fx.trace.events) {
    stepped.on_event(e);
  }
  const std::vector<workload::StreamEvent>& events = fx.trace.events;
  ASSERT_GT(events.size(), 8u);
  batched.apply_batch(events.data(), 1);
  batched.apply_batch(events.data() + 1, 7);
  batched.apply_batch(events.data() + 8, events.size() - 8);
  EXPECT_TRUE(bulk.snapshot() == stepped.snapshot());
  EXPECT_EQ(bulk.work(), stepped.work());
  const std::string want = save_checkpoint_string(bulk, events.size());
  EXPECT_EQ(save_checkpoint_string(stepped, events.size()), want);
  EXPECT_EQ(save_checkpoint_string(batched, events.size()), want);
}

TEST(ServeReplayProperty, ThreadPoolDoesNotChangeState) {
  const Fixture fx = make_fixture(11);
  ServeEngine serial = fresh_engine(fx);
  serial.replay(fx.trace);
  const auto serial_snap = serial.snapshot();
  const auto serial_lat = serial.predicted_latencies();

  exec::ThreadPool pool(4);
  exec::ScopedPool scope(pool);
  ServeEngine threaded = fresh_engine(fx);
  threaded.replay(fx.trace);
  EXPECT_TRUE(serial_snap == threaded.snapshot());
  const auto threaded_lat = threaded.predicted_latencies();
  ASSERT_EQ(serial_lat.size(), threaded_lat.size());
  for (std::size_t i = 0; i < serial_lat.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(serial_lat[i], threaded_lat[i]) << "request index " << i;
  }
  const ServeSummary a = serial.summary();
  const ServeSummary b = threaded.summary();
  EXPECT_EQ(a.mean_predicted_latency, b.mean_predicted_latency);
  EXPECT_EQ(a.p99_predicted_latency, b.p99_predicted_latency);
  EXPECT_EQ(a.work, b.work);
}

TEST(ServeReplayProperty, SnapshotDetectsDivergence) {
  // Sanity-check the comparator itself: different configs must not
  // compare equal on a trace where the knob matters.
  const Fixture fx = make_fixture(5);
  ServeEngine a = fresh_engine(fx);
  ServeConfig other;
  other.rebalance_threshold = 10.0;  // effectively disables rebalancing
  ServeEngine b(make_topo(), fx.base.vnfs, other);
  a.replay(fx.trace);
  b.replay(fx.trace);
  const ServeSummary sa = a.summary();
  if (sa.migrations > 0) {
    EXPECT_FALSE(a.snapshot() == b.snapshot());
  }
}

}  // namespace
}  // namespace nfv::serve
