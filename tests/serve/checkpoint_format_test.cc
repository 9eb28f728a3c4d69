// Format pins and structural cross-checks for the serve checkpoint and the
// timeline stream (DESIGN.md §13.4, §14.1).
//
//  * Byte pins: a 64-bit FNV-1a digest plus the byte length of
//    save_checkpoint_string / write_timeline output on two in-code
//    engines.  The round-trip suites only prove self-consistency — a key
//    renamed in the writer and the reader alike, or two fields swapped,
//    passes them.  These constants change only with a deliberate format
//    change.
//  * Members: an instance's member list must equal the ids of the live
//    requests whose hops point at it; restore rejects a checkpoint that
//    breaks this in either direction instead of failing later, mid-replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>

#include "nfv/common/rng.h"
#include "nfv/obs/timeline.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::serve {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pin {
  std::uint64_t digest;
  std::size_t bytes;
};

void expect_pinned(std::string_view text, Pin want, const char* what) {
  EXPECT_EQ(text.size(), want.bytes) << what;
  EXPECT_EQ(fnv1a(text), want.digest)
      << what << ": 0x" << std::hex << fnv1a(text);
}

std::string timeline_text(const ServeEngine& engine) {
  std::ostringstream os;
  obs::write_timeline(engine.timeline_doc(), os);
  return os.str();
}

struct Fixture {
  workload::Workload base;
  workload::EventTrace trace;
};

// Tight star with three churning nodes (MTTR > MTBF): requests queue,
// park and wait, so pending_since and the wait histogram carry samples.
topo::Topology churn_topo() {
  Rng rng(3);
  return topo::make_star(4, {800.0, 1200.0}, {}, rng);
}

Fixture churn_fixture() {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 8;
  wcfg.request_count = 60;
  Rng wrng(3);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 240;
  scfg.target_population = 80;
  scfg.churn_node_count = 3;
  scfg.node_mtbf = 1.0;
  scfg.node_mttr = 1.2;
  Rng srng(3);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeEngine churn_engine(const Fixture& fx) {
  ServeConfig cfg;
  cfg.snapshot_every = 0.5;
  cfg.lifecycle = true;
  return ServeEngine(churn_topo(), fx.base.vnfs, cfg);
}

// Ramp + burst + churn under the reactive policy with the timeline on, so
// the checkpoint carries the autoscale config and state blocks, draining
// instances, and the baseline's scale fields.
topo::Topology ramp_topo() {
  topo::Topology t;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(t.add_compute(1200.0 + 250.0 * i));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    t.connect_nodes(ids[0], ids[i], 1e-4);
  }
  t.freeze();
  return t;
}

Fixture ramp_fixture() {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 25;
  Rng wrng(7);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 220;
  scfg.churn_node_count = 3;
  scfg.node_mtbf = 3.0;
  scfg.node_mttr = 0.8;
  scfg.ramp_amplitude = 0.5;
  scfg.ramp_period = 4.0;
  scfg.burst_every = 3.0;
  scfg.burst_length = 0.8;
  scfg.burst_factor = 2.0;
  Rng srng(107);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeEngine reactive_engine(const Fixture& fx) {
  ServeConfig cfg;
  cfg.rebalance_threshold = 0.15;
  cfg.migration_budget = 1;  // drains outlive their decision window
  cfg.overload_window = 16;
  cfg.snapshot_every = 0.5;
  cfg.autoscale.policy = ScalePolicy::kReactive;
  cfg.autoscale.scale_interval = 0.25;
  cfg.autoscale.cooldown_windows = 1;
  cfg.autoscale.low_watermark = 0.6;
  return ServeEngine(ramp_topo(), fx.base.vnfs, cfg);
}

/// Replays until the checkpoint contains every one of `needles` and
/// returns that checkpoint (the engine stops there), or "" at trace end.
std::string replay_until(ServeEngine& engine, const Fixture& fx,
                         std::initializer_list<std::string_view> needles) {
  for (std::size_t k = 0; k < fx.trace.events.size(); ++k) {
    engine.on_event(fx.trace.events[k]);
    std::string text = save_checkpoint_string(engine, k + 1);
    bool all = true;
    for (const std::string_view n : needles) {
      all = all && text.find(n) != std::string::npos;
    }
    if (all) return text;
  }
  return {};
}

TEST(CheckpointFormat, ChurnTelemetryLifecycleBytesArePinned) {
  const Fixture fx = churn_fixture();
  ServeEngine engine = churn_engine(fx);
  // The first checkpoint with a waiting request and a wait sample, so the
  // pin covers pending_since and a histogram window's min/max.
  const std::string text = replay_until(engine, fx, {"\"since\"", "\"min\""});
  ASSERT_FALSE(text.empty()) << "the fixture never queues a request";
  ASSERT_NE(text.find("\"lifecycle\": ["), std::string::npos);
  ASSERT_GT(engine.summary().node_downs, 0u);
  expect_pinned(text, {0xf83f85e094f58cc9ull, 107973}, "checkpoint");

  // The binary-trace cursor pair rides at the top of the same document.
  const BinaryTraceCursor btrace{12345, 0x3ff8000000000000ull};
  expect_pinned(save_checkpoint_string(engine, 7, &btrace),
                {0x4d136f8ab55c47aaull, 108038},
                "checkpoint with binary-trace cursor");
  expect_pinned(timeline_text(engine), {0xe1dfc8c7f2bc3b63ull, 3458},
                "timeline");
}

TEST(CheckpointFormat, ReactiveAutoscaleBytesArePinned) {
  const Fixture fx = ramp_fixture();
  ServeEngine engine = reactive_engine(fx);
  const std::string text = replay_until(engine, fx, {"\"draining\": true"});
  ASSERT_FALSE(text.empty()) << "the fixture never drains an instance";
  ASSERT_NE(text.find("\"autoscale_policy\": \"reactive\""),
            std::string::npos);
  expect_pinned(text, {0xd16b0b1e5059e128ull, 38995}, "checkpoint");
  const std::string timeline = timeline_text(engine);
  ASSERT_NE(timeline.find("\"scale_ins\""), std::string::npos);
  expect_pinned(timeline, {0xb0061de13cdc49e6ull, 1749}, "timeline");
}

// ---------------------------------------------------------------------------
// Members cross-check
// ---------------------------------------------------------------------------

/// A mid-trace checkpoint of the churn fixture after 60 events.
std::string sixty_event_checkpoint(const Fixture& fx) {
  ServeEngine engine = churn_engine(fx);
  for (std::size_t i = 0; i < 60; ++i) engine.on_event(fx.trace.events[i]);
  return save_checkpoint_string(engine, 60);
}

void expect_rejected(const std::string& text, const Fixture& fx) {
  EXPECT_THROW((void)peek_checkpoint(text), CheckpointParseError);
  std::uint64_t cursor = 0;
  EXPECT_THROW(
      (void)restore_checkpoint(text, churn_topo(), fx.base.vnfs, &cursor),
      CheckpointParseError);
}

TEST(CheckpointMembers, InstanceMemberWithoutALiveHopIsRejected) {
  const Fixture fx = churn_fixture();
  std::string text = sixty_event_checkpoint(fx);
  std::uint64_t cursor = 0;
  ASSERT_NO_THROW(
      (void)restore_checkpoint(text, churn_topo(), fx.base.vnfs, &cursor));
  // Append a member id no live request carries to a non-empty list.
  const std::string list = "\"members\": [\n";
  const auto at = text.find(list);
  ASSERT_NE(at, std::string::npos);
  const auto close = text.find(']', at);
  text.insert(close, ", 999999");
  expect_rejected(text, fx);
}

TEST(CheckpointMembers, LiveHopMissingFromTheInstanceIsRejected) {
  const Fixture fx = churn_fixture();
  std::string text = sixty_event_checkpoint(fx);
  // Empty the first non-empty member list: its requests' hops still point
  // at the instance.
  const std::string list = "\"members\": [\n";
  const auto at = text.find(list);
  ASSERT_NE(at, std::string::npos);
  const auto open = at + list.size() - 2;  // the '['
  const auto close = text.find(']', at);
  text.replace(open, close - open + 1, "[]");
  expect_rejected(text, fx);
}

}  // namespace
}  // namespace nfv::serve
