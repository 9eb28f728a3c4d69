// Whole-trace pins on the committed fixtures (bench/traces/*_smoke): each
// trace is replayed end to end under the configuration its CI bench runs,
// with the lifecycle log and the timeline switched on (neither changes a
// decision), and three outputs are pinned by a 64-bit FNV-1a digest plus
// their byte length:
//  * the final save_checkpoint_string.  It carries the event log, the live
//    state, the lifecycle and timeline streams and the `work` counter, so
//    any change to a decision, to the order of the decisions within an
//    event, or to the effort the engine spends shows up here;
//  * the serve run report with the events log, byte-identical to
//    `nfvpr serve --snapshot-every 0.5 --report-out R --events-log` under
//    the same config (seed 1);
//  * the flight dump at nfvpr's default capacity (256).
// The in-code pins of checkpoint_format_test.cc stop at a mid-trace cut;
// these run every event of the fixtures CI gates on.  The constants change
// only with a deliberate policy or format change.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "nfv/obs/report.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/io.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/io.h"

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

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(NFV_TRACES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

struct Pin {
  std::uint64_t digest;
  std::size_t bytes;
};

void expect_pinned(const std::string& text, Pin want) {
  EXPECT_EQ(text.size(), want.bytes);
  EXPECT_EQ(fnv1a(text), want.digest) << "0x" << std::hex << fnv1a(text);
}

/// Replays bench/traces/<stem>.* under `config` (plus lifecycle and
/// timeline recording) and checks the final checkpoint, the run report and
/// the flight dump against their pins.
void expect_outputs_pinned(const std::string& stem, ServeConfig config,
                           Pin checkpoint, Pin report, Pin flight) {
  config.lifecycle = true;
  config.snapshot_every = 0.5;
  const topo::Topology topology =
      topo::load_topology_string(read_fixture(stem + ".topo"));
  const workload::Workload wl =
      workload::load_workload_string(read_fixture(stem + ".wl"));
  const workload::EventTrace trace =
      workload::load_event_trace(read_fixture(stem + ".trace.json"));
  ServeEngine engine(topology, wl.vnfs, config);
  engine.replay(trace);
  SCOPED_TRACE(stem);
  expect_pinned(save_checkpoint_string(engine, trace.events.size()),
                checkpoint);

  obs::RunReport run;
  run.command = "serve";
  run.seed = 1;
  run.serve = report_section(engine, /*include_events=*/true);
  std::ostringstream report_text;
  obs::write_run_report(run, report_text);
  expect_pinned(report_text.str(), report);

  std::ostringstream dump;
  write_flight_dump(engine, 256, dump);
  expect_pinned(dump.str(), flight);
}

// bench_autoscale's row configuration: its Knobs defaults (the bench's CLI
// defaults) under `policy`.
ServeConfig autoscale_bench_config(ScalePolicy policy) {
  ServeConfig cfg;
  cfg.migration_budget = 8;
  cfg.autoscale.policy = policy;
  cfg.autoscale.scale_interval = 0.15;
  cfg.autoscale.high_watermark = 0.95;
  cfg.autoscale.low_watermark = 0.80;
  cfg.autoscale.cooldown_windows = 0;
  cfg.autoscale.max_step = 4;
  cfg.autoscale.safety_margin = 0.05;
  return cfg;
}

// bench_online's serve_replay row: the default config.
TEST(FixturePin, OnlineSmokeServeReplay) {
  expect_outputs_pinned("online_smoke", {}, {0x272fed246ff6fda1ull, 303673},
                        {0xd3ce1537a02d9a08ull, 136361}, {0x8a6a35666f46e390ull, 125287});
}

// bench_online's serve_never row: no rebalance moves.
TEST(FixturePin, OnlineSmokeServeNever) {
  ServeConfig never;
  never.migration_budget = 0;
  expect_outputs_pinned("online_smoke", never, {0x8fc717d74656a9d4ull, 225796},
                        {0xdd422dd352fbafbbull, 136330}, {0x534a66fe2efd7c88ull, 125262});
}

// bench_chaos_serve: the default config on the churn fixture, so the
// evacuate → park → retry → shed ladder runs.
TEST(FixturePin, ChaosSmoke) {
  expect_outputs_pinned("chaos_smoke", {}, {0x982f415e801cfc89ull, 1107654},
                        {0xc6dd6e80776e48e9ull, 374243}, {0xddf13d9f978826b4ull, 134041});
}

TEST(FixturePin, AutoscaleSmokeReactive) {
  expect_outputs_pinned("autoscale_smoke",
                        autoscale_bench_config(ScalePolicy::kReactive),
                        {0x04fbb0f2ff2ef39bull, 763699},
                        {0x8fa4e0ccd15638a4ull, 349600}, {0xf1c45252bcd4bae7ull, 134049});
}

TEST(FixturePin, AutoscaleSmokePredictive) {
  expect_outputs_pinned("autoscale_smoke",
                        autoscale_bench_config(ScalePolicy::kPredictive),
                        {0x67ebd59b16a0d7d7ull, 762868},
                        {0xd95a07657682d6d9ull, 349601}, {0xb4a22f4c5650f648ull, 134049});
}

}  // namespace
}  // namespace nfv::serve
