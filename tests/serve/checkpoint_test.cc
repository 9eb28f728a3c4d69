// Crash-safe checkpoint/resume (DESIGN.md §13).  The hard contract under
// test: kill the replay at ANY event index, restore from the checkpoint,
// finish the trace — the final engine state (and thus report/summary) is
// byte-identical to the uninterrupted run, under any thread-pool width,
// on traces with full node churn.  The byte-level comparator is the
// checkpoint serialization itself, which covers every float verbatim,
// the whole outcome log, and all aggregate counters.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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
    ids.push_back(t.add_compute(1200.0 + 250.0 * i));
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

/// Churn over most of the node set so evacuations, parking, retries and
/// degradation all fire inside the checkpointed window.
Fixture make_churn_fixture(std::uint64_t seed) {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(seed);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 220;
  scfg.churn_node_count = 4;
  scfg.node_mtbf = 3.0;
  scfg.node_mttr = 0.8;
  Rng srng(seed + 100);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeEngine fresh_engine(const Fixture& fx) {
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.15;
  cfg.overload_window = 16;
  return ServeEngine(make_topo(), fx.base.vnfs, cfg);
}

TEST(ServeCheckpoint, RoundTripRestoresStateVerbatim) {
  const Fixture fx = make_churn_fixture(7);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  std::uint64_t cursor = 0;
  ServeEngine restored =
      restore_checkpoint(text, make_topo(), fx.base.vnfs, &cursor);
  EXPECT_EQ(cursor, fx.trace.events.size());
  EXPECT_TRUE(engine.snapshot() == restored.snapshot());
  EXPECT_EQ(engine.work(), restored.work());
  // The serialization itself must be a fixed point: saving the restored
  // engine reproduces the text byte for byte.
  EXPECT_EQ(save_checkpoint_string(restored, cursor), text);
}

TEST(ServeCheckpoint, KillAtAnyEventResumesByteIdentical) {
  for (const std::uint64_t seed : {2u, 7u, 19u}) {
    const Fixture fx = make_churn_fixture(seed);
    const std::size_t n = fx.trace.events.size();

    ServeEngine uninterrupted = fresh_engine(fx);
    uninterrupted.replay(fx.trace);
    const std::string want = save_checkpoint_string(uninterrupted, n);
    // The fixture must actually exercise the fault ladder for the
    // identity below to mean anything.
    const ServeSummary s = uninterrupted.summary();
    ASSERT_GT(s.node_downs, 0u) << "seed " << seed;
    ASSERT_GT(s.evacuated_requests + s.parked + s.shed_fault, 0u)
        << "seed " << seed;

    ServeEngine running = fresh_engine(fx);  // advances to each kill point
    for (std::size_t k = 0; k <= n; ++k) {
      if (k > 0) running.on_event(fx.trace.events[k - 1]);
      const std::string ck = save_checkpoint_string(running, k);
      std::uint64_t cursor = 0;
      ServeEngine resumed =
          restore_checkpoint(ck, make_topo(), fx.base.vnfs, &cursor);
      ASSERT_EQ(cursor, k);
      for (std::size_t i = k; i < n; ++i) {
        resumed.on_event(fx.trace.events[i]);
      }
      ASSERT_EQ(save_checkpoint_string(resumed, n), want)
          << "seed " << seed << " killed at event " << k;
    }
  }
}

TEST(ServeCheckpoint, ThreadWidthNeverLeaksIntoCheckpoints) {
  const Fixture fx = make_churn_fixture(11);
  const std::size_t n = fx.trace.events.size();

  ServeEngine serial = fresh_engine(fx);
  serial.replay(fx.trace);
  const std::string want = save_checkpoint_string(serial, n);

  // Whole replay under a wide pool…
  {
    exec::ThreadPool pool(8);
    exec::ScopedPool scope(pool);
    ServeEngine wide = fresh_engine(fx);
    wide.replay(fx.trace);
    EXPECT_EQ(save_checkpoint_string(wide, n), want);
  }
  // …and a serial prefix resumed under a wide pool.
  {
    ServeEngine prefix = fresh_engine(fx);
    const std::size_t k = n / 2;
    for (std::size_t i = 0; i < k; ++i) prefix.on_event(fx.trace.events[i]);
    const std::string ck = save_checkpoint_string(prefix, k);

    exec::ThreadPool pool(8);
    exec::ScopedPool scope(pool);
    std::uint64_t cursor = 0;
    ServeEngine resumed =
        restore_checkpoint(ck, make_topo(), fx.base.vnfs, &cursor);
    for (std::size_t i = cursor; i < n; ++i) {
      resumed.on_event(fx.trace.events[i]);
    }
    EXPECT_EQ(save_checkpoint_string(resumed, n), want);
  }
}

TEST(ServeCheckpoint, PeekReportsCursorAndCounts) {
  const Fixture fx = make_churn_fixture(3);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  const CheckpointInfo info = peek_checkpoint(text);
  EXPECT_EQ(info.cursor, fx.trace.events.size());
  EXPECT_EQ(info.vnf_count, fx.base.vnfs.size());
  EXPECT_EQ(info.node_count, 5u);
  EXPECT_EQ(info.live_requests, engine.summary().live_requests);
  EXPECT_EQ(info.logged_events, engine.log().size());
}

TEST(ServeCheckpoint, TruncatedTextAlwaysThrows) {
  const Fixture fx = make_churn_fixture(5);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  // Every strict prefix is a parse error, never a crash or a silently
  // half-restored engine.
  for (std::size_t len = 0; len < text.size();
       len += std::max<std::size_t>(1, text.size() / 257)) {
    EXPECT_THROW((void)peek_checkpoint(text.substr(0, len)),
                 CheckpointParseError)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW((void)peek_checkpoint(text));
}

TEST(ServeCheckpoint, RejectsWrongSchemaAndMismatchedUniverse) {
  const Fixture fx = make_churn_fixture(9);
  ServeEngine engine = fresh_engine(fx);
  engine.replay(fx.trace);
  const std::string text =
      save_checkpoint_string(engine, fx.trace.events.size());

  std::string wrong = text;
  const auto pos = wrong.find("nfvpr.checkpoint/1");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 18, "nfvpr.checkpoint/9");
  EXPECT_THROW((void)peek_checkpoint(wrong), CheckpointParseError);

  std::uint64_t cursor = 0;
  // Wrong topology (node count) and wrong VNF universe both refuse.
  topo::Topology small;
  small.add_compute(1000.0);
  small.freeze();
  EXPECT_THROW(restore_checkpoint(text, small, fx.base.vnfs, &cursor),
               CheckpointParseError);
  std::vector<workload::Vnf> fewer(fx.base.vnfs.begin(),
                                   fx.base.vnfs.end() - 1);
  EXPECT_THROW(restore_checkpoint(text, make_topo(), fewer, &cursor),
               CheckpointParseError);
}

// The k-th retry backoff is retry_backoff_base << k for k up to
// retry_budget, so the config must keep that shift inside 64 bits.
TEST(ServeCheckpoint, RejectsARetryBackoffShiftPast64Bits) {
  ServeConfig cfg;
  cfg.retry_backoff_base = 4;
  cfg.retry_budget = 61;  // 4 << 61 == 2^63 still fits
  EXPECT_NO_THROW(cfg.validate());
  cfg.retry_budget = 62;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.retry_backoff_base = 1;
  cfg.retry_budget = 63;
  EXPECT_NO_THROW(cfg.validate());
  cfg.retry_budget = 64;  // shifting a 64-bit value by 64 is undefined
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A checkpoint can carry any uint32 budget; restore refuses the file
  // before a replay could reach the shift.
  const Fixture fx = make_churn_fixture(9);
  ServeEngine engine = fresh_engine(fx);
  for (std::size_t i = 0; i < 40; ++i) engine.on_event(fx.trace.events[i]);
  std::string text = save_checkpoint_string(engine, 40);
  const std::string key = "\"retry_budget\": 3";
  const auto pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, key.size(), "\"retry_budget\": 64");
  std::uint64_t cursor = 0;
  try {
    (void)restore_checkpoint(text, make_topo(), fx.base.vnfs, &cursor);
    FAIL() << "restore accepted retry_budget 64";
  } catch (const CheckpointParseError& e) {
    EXPECT_NE(std::string(e.what()).find("embedded config is invalid"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nfv::serve
