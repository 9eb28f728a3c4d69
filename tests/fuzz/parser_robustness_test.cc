// Deterministic mini-fuzz regression suite for the text parsers (traces,
// topologies, reports, serve checkpoints), built with the ordinary gtest
// suites (no libFuzzer needed).  Two layers:
//
//  * seeded byte-level mutations of known-valid inputs must either parse
//    or throw the parser's documented exception type — nothing else, and
//    never crash (the contract the NFV_FUZZ targets check at scale);
//  * pinned malformed inputs (the classes the fuzz corpus seeds) must
//    throw exactly the documented type, so a future parser regression
//    that, say, leaks std::bad_variant_access is caught everywhere.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "nfv/common/error.h"
#include "nfv/common/rng.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/core/report_builder.h"
#include "nfv/obs/report.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/serve/policy.h"
#include "nfv/topology/builders.h"
#include "nfv/topology/io.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/generator.h"
#include "nfv/workload/io.h"

namespace nfv {
namespace {

// ---------------------------------------------------------------------------
// Valid baseline inputs, produced by the library's own writers.
// ---------------------------------------------------------------------------

std::string valid_trace_text() {
  workload::EventTrace trace;
  trace.vnf_count = 3;
  workload::StreamEvent a;
  a.time = 0.0;
  a.kind = workload::StreamEventKind::kArrive;
  a.request = 0;
  a.rate = 10.0;
  a.delivery_prob = 0.95;
  a.chain = {0, 2};
  workload::StreamEvent b = a;
  b.time = 0.5;
  b.request = 1;
  b.chain = {1};
  workload::StreamEvent d;
  d.time = 2.0;
  d.kind = workload::StreamEventKind::kDepart;
  d.request = 0;
  trace.events = {a, b, d};
  return workload::save_event_trace_string(trace);
}

std::string valid_topology_text() {
  Rng rng(1);
  return topo::save_topology_string(topo::make_star(
      4, topo::CapacitySpec{1000.0, 1000.0}, topo::LinkSpec{1e-4}, rng));
}

std::string valid_report_text() {
  Rng rng(1);
  core::SystemModel model;
  model.topology = topo::make_star(6, topo::CapacitySpec{2000.0, 2000.0},
                                   topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 6;
  cfg.request_count = 30;
  model.workload = workload::WorkloadGenerator(cfg).generate(rng);
  const core::JointResult result =
      core::JointOptimizer(core::JointConfig{}).run(model, 1);
  core::ReportInputs in;
  in.command = "pipeline";
  in.seed = 1;
  in.placement_algorithm = "BFDSU";
  in.scheduling_algorithm = "RCKK";
  in.model = &model;
  in.result = &result;
  std::ostringstream os;
  obs::write_run_report(core::build_run_report(in), os);
  return std::move(os).str();
}

/// Applies 1–4 random byte edits (flip, insert, delete, or truncate).
std::string mutate(std::string text, Rng& rng) {
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(4)) {
      case 0:
        text[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      case 2:
        text.erase(pos, 1);
        break;
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

/// Runs `parse` on seeded mutations of `valid`; anything other than a
/// clean parse or `Documented...` exceptions fails the test.
template <typename Fn>
void expect_parse_or_documented_throw(const std::string& valid, Fn&& parse,
                                      const char* what) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::string text = mutate(valid, rng);
    try {
      parse(text);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " seed " << seed
                    << ": undocumented exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << what << " seed " << seed << ": non-std exception";
    }
  }
}

TEST(ParserRobustness, MutatedTracesParseOrThrowTraceParseError) {
  expect_parse_or_documented_throw(
      valid_trace_text(),
      [](const std::string& text) {
        try {
          (void)workload::load_event_trace(text);
        } catch (const workload::TraceParseError&) {
        }
      },
      "trace");
}

TEST(ParserRobustness, MutatedBinaryTracesParseOrThrowTraceParseError) {
  // Same contract as the text sweep, over the nfvpr.btrace/1 bytes — both
  // the materializing loader and the streaming decoder with a mid-stream
  // skip (they walk the record framing differently).
  const std::string binary = workload::save_binary_trace_string(
      workload::load_event_trace(valid_trace_text()));
  expect_parse_or_documented_throw(
      binary,
      [](const std::string& bytes) {
        try {
          (void)workload::load_binary_trace(bytes);
        } catch (const workload::TraceParseError&) {
        }
        try {
          workload::BinaryTraceDecoder decoder(bytes);
          workload::StreamEvent event;
          if (decoder.next(event)) {
            decoder.skip(1);
            while (decoder.next(event)) {
            }
          }
        } catch (const workload::TraceParseError&) {
        }
      },
      "btrace");
}

TEST(ParserRobustness, PinnedBinaryTraceCrashersThrowDocumentedType) {
  // Mirrors tests/fuzz/corpus/btrace: one pinned input per corruption
  // class the fuzz corpus seeds.
  using namespace std::string_literals;
  const std::string valid = workload::save_binary_trace_string(
      workload::load_event_trace(valid_trace_text()));
  const std::string inputs[] = {
      ""s,
      "NFVBT"s,                          // magic cut short
      "NFVBT2\x00\x01\x00"s,             // future major version
      "NFVBT1"s,                         // header ends after the magic
      "NFVBT1\x01\x05\x00"s,             // non-zero flags byte
      "NFVBT1\x00\x00\x00"s,             // vnf_count = 0
      "NFVBT1\x00"s + std::string(11, '\x80'),  // varint past 10 bytes
      "NFVBT1\x00\x01\x01\x7f\x00\x00\x00"s,  // record length overruns buffer
      "NFVBT1\x00\x01\x01\x01\x00"s,     // record: kind only, no timestamp
      valid.substr(0, valid.size() / 2),  // truncated mid-record
      valid + "\x00"s,                    // trailing bytes after the end
  };
  for (const std::string& bytes : inputs) {
    EXPECT_THROW((void)workload::load_binary_trace(bytes),
                 workload::TraceParseError)
        << "input of " << bytes.size() << " bytes";
  }
}

TEST(ParserRobustness, MutatedTopologiesParseOrThrowParseError) {
  expect_parse_or_documented_throw(
      valid_topology_text(),
      [](const std::string& text) {
        try {
          (void)topo::load_topology_string(text);
        } catch (const topo::ParseError&) {
        } catch (const InfeasibleError&) {
        }
      },
      "topology");
}

TEST(ParserRobustness, MutatedWorkloadsParseOrThrowWorkloadParseError) {
  Rng rng(2);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 5;
  cfg.request_count = 20;
  const std::string valid = workload::save_workload_string(
      workload::WorkloadGenerator(cfg).generate(rng));
  expect_parse_or_documented_throw(
      valid,
      [](const std::string& text) {
        try {
          (void)workload::load_workload_string(text);
        } catch (const workload::WorkloadParseError&) {
        }
      },
      "workload");
}

TEST(ParserRobustness, MutatedReportsLoadOrThrowInvalidArgument) {
  expect_parse_or_documented_throw(
      valid_report_text(),
      [](const std::string& text) {
        try {
          const obs::JsonValue report = obs::load_run_report(text);
          // Whatever loads must also render and self-diff.
          (void)obs::pretty_print_report(report);
          (void)obs::diff_reports(report, report);
        } catch (const std::invalid_argument&) {
        }
      },
      "report");
}

// ---------------------------------------------------------------------------
// Pinned malformed inputs (mirrors tests/fuzz/corpus seeds).
// ---------------------------------------------------------------------------

TEST(ParserRobustness, PinnedTraceCrashersThrowDocumentedType) {
  const char* inputs[] = {
      "",
      "{",
      R"({"schema":"nfvpr.trace/99","vnf_count":1,"events":[]})",
      R"({"schema":"nfvpr.trace/1"})",
      R"({"schema":"nfvpr.trace/1","vnf_count":2,"events":[{"t":0,"kind":"arrive","request":0,"rate":3,"delivery_prob":1,"chain":[7]}]})",
      R"({"schema":"nfvpr.trace/1","vnf_count":2,"events":[{"t":1,"kind":"arrive","request":0,"rate":3,"delivery_prob":1,"chain":[0]},{"t":0.5,"kind":"depart","request":0}]})",
      R"({"schema":"nfvpr.trace/1","vnf_count":2,"events":[{"t":0,"kind":"depart","request":9}]})",
  };
  for (const char* text : inputs) {
    EXPECT_THROW((void)workload::load_event_trace(text),
                 workload::TraceParseError)
        << text;
  }
}

TEST(ParserRobustness, PinnedTopologyCrashersThrowDocumentedType) {
  EXPECT_THROW((void)topo::load_topology_string("nodule a compute 100\n"),
               topo::ParseError);
  EXPECT_THROW((void)topo::load_topology_string(
                   "node a compute 100\nnode a compute 200\n"),
               topo::ParseError);
  EXPECT_THROW(
      (void)topo::load_topology_string("node a compute 100\nlink a b 1e-4\n"),
      topo::ParseError);
  EXPECT_THROW((void)topo::load_topology_string(
                   "node a compute 100\nnode b compute 100\n"),
               InfeasibleError);
}

std::string valid_checkpoint_text() {
  Rng rng(4);
  topo::Topology topology = topo::make_star(
      4, topo::CapacitySpec{1500.0, 2500.0}, topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 15;
  const workload::Workload base =
      workload::WorkloadGenerator(wcfg).generate(rng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 60;
  scfg.churn_node_count = 3;
  scfg.node_mtbf = 2.0;
  scfg.node_mttr = 0.5;
  const workload::EventTrace trace =
      workload::EventStreamGenerator(base, scfg).generate(rng);
  serve::ServeEngine engine(std::move(topology), base.vnfs, {});
  engine.replay(trace);
  return serve::save_checkpoint_string(engine, trace.events.size());
}

TEST(ParserRobustness, MutatedCheckpointsParseOrThrowCheckpointParseError) {
  expect_parse_or_documented_throw(
      valid_checkpoint_text(),
      [](const std::string& text) {
        try {
          (void)serve::peek_checkpoint(text);
        } catch (const serve::CheckpointParseError&) {
        }
      },
      "checkpoint");
}

// Same engine, but with autoscaling live: the checkpoint now carries the
// embedded autoscale config block plus the controller state walk
// (vnf_states, per-instance draining bits), all absent from the plain
// fixture above.
std::string valid_autoscale_checkpoint_text() {
  Rng rng(9);
  topo::Topology topology = topo::make_star(
      4, topo::CapacitySpec{1500.0, 2500.0}, topo::LinkSpec{1e-4}, rng);
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 15;
  const workload::Workload base =
      workload::WorkloadGenerator(wcfg).generate(rng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 60;
  scfg.ramp_amplitude = 0.5;
  scfg.ramp_period = 4.0;
  scfg.burst_factor = 3.0;
  scfg.burst_length = 0.8;
  scfg.burst_every = 2.0;
  const workload::EventTrace trace =
      workload::EventStreamGenerator(base, scfg).generate(rng);
  serve::ServeConfig config;
  config.autoscale.policy = serve::ScalePolicy::kPredictive;
  serve::ServeEngine engine(std::move(topology), base.vnfs, config);
  engine.replay(trace);
  return serve::save_checkpoint_string(engine, trace.events.size());
}

TEST(ParserRobustness,
     MutatedAutoscaleCheckpointsParseOrThrowCheckpointParseError) {
  expect_parse_or_documented_throw(
      valid_autoscale_checkpoint_text(),
      [](const std::string& text) {
        try {
          (void)serve::peek_checkpoint(text);
        } catch (const serve::CheckpointParseError&) {
        }
      },
      "autoscale checkpoint");
}

// A coherent 1-vnf/1-node checkpoint: request 7 live on one instance, one
// logged arrival.  Each out-of-range crasher swaps exactly one substring.
const std::string kOneRequestCheckpoint =
    R"({"schema":"nfvpr.checkpoint/1","cursor":1,"vnf_count":1,)"
    R"("node_count":1,"config":{"headroom":0.1,"rebalance_threshold":0.25,)"
    R"("migration_budget":4,"queue_capacity":64,"link_latency":null,)"
    R"("overload_window":32,"overload_threshold":0.75,)"
    R"("degraded_headroom":0.25,"retry_backoff_base":4,"retry_budget":3},)"
    R"("last_time":0,"saw_event":true,"next_seq":1,"work":1,)"
    R"("served_integral":0,"offered_integral":0,"degraded":false,)"
    R"("pressure_window":[0],"node_free":[0],"node_instances":[1],)"
    R"("node_up":[1],"instances":[{"vnf":0,"node":0,"seq":0,)"
    R"("raw_load":1,"effective_load":1,"retired":false,"members":[7]}],)"
    R"("live":[{"id":7,"rate":1,"prob":1,"chain":[0],"hops":[0]}],)"
    R"("queue":[],"retry":[],"gone":[],)"
    R"("totals":{"events":1,"arrivals":1,"admitted":1,)"
    R"("admitted_from_queue":0,"rejected":0,"departures":0,)"
    R"("rate_changes":0,"shed":0,"migrations":0,"rebalances":0,)"
    R"("max_migrations_per_rebalance":0,"scale_outs":1,"scale_ins":0,)"
    R"("node_downs":0,"node_ups":0,"instances_closed":0,)"
    R"("evacuated_requests":0,"evacuation_migrations":0,"parked":0,)"
    R"("retry_admitted":0,"shed_fault":0,"shed_overload":0,)"
    R"("degradations":0,"degraded_events":0},)"
    R"("log":[{"index":0,"t":0,"kind":0,"request":7,"decision":0,)"
    R"("migrations":0,"scale_outs":1,"scale_ins":0,"admitted_from_queue":0,)"
    R"("evacuated":0,"evacuation_migrations":0,"parked":0,)"
    R"("retry_admitted":0,"shed_fault":0,"shed_overload":0,)"
    R"("degraded":false,"mean_predicted_latency":0,)"
    R"("p99_predicted_latency":0}]})";

/// kOneRequestCheckpoint with the first `from` replaced by `to`.
std::string one_request_checkpoint_with(const std::string& from,
                                        const std::string& to) {
  std::string text = kOneRequestCheckpoint;
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ParserRobustness, PinnedCheckpointCrashersThrowDocumentedType) {
  const char* inputs[] = {
      "",
      "{",
      "[1,2,3]",
      R"({"schema":"nfvpr.checkpoint/9"})",
      R"({"schema":"nfvpr.checkpoint/1"})",  // everything else missing
      R"({"schema":"nfvpr.checkpoint/1","cursor":-1,"vnf_count":1,)"
      R"("node_count":1})",
      // Structural lies: an instance on a node the engine does not have,
      // a live request bound to a missing instance slot, a hop pointing
      // at a retired instance.
      R"({"schema":"nfvpr.checkpoint/1","cursor":0,"vnf_count":1,)"
      R"("node_count":1,"config":{"headroom":0.1,)"
      R"("rebalance_threshold":0.25,"migration_budget":4,)"
      R"("queue_capacity":64,"link_latency":null,"overload_window":32,)"
      R"("overload_threshold":0.75,"degraded_headroom":0.25,)"
      R"("retry_backoff_base":4,"retry_budget":3},"last_time":0,)"
      R"("saw_event":false,"next_seq":1,"work":0,"served_integral":0,)"
      R"("offered_integral":0,"degraded":false,"pressure_window":[],)"
      R"("node_free":[1],"node_instances":[0],"node_up":[1],)"
      R"("instances":[{"vnf":0,"node":9,"seq":0,"raw_load":0,)"
      R"("effective_load":0,"retired":false,"members":[]}],)"
      R"("live":[],"queue":[],"retry":[],"gone":[],"totals":{}})",
  };
  for (const char* text : inputs) {
    EXPECT_THROW((void)serve::peek_checkpoint(text),
                 serve::CheckpointParseError)
        << text;
  }

  // Integers outside their destination type: each once cast silently
  // (7 + 2^32 restored as id 7, 2^32 + 1 migrations as 1) or, for a
  // negative or huge double cast to uint32_t, undefined behaviour.
  ASSERT_NO_THROW((void)serve::peek_checkpoint(kOneRequestCheckpoint));
  const std::pair<const char*, const char*> out_of_range[] = {
      {R"("live":[{"id":7,)", R"("live":[{"id":4294967303,)"},
      {R"("decision":0,"migrations":0,)",
       R"("decision":0,"migrations":4294967297,)"},
      {R"("node_instances":[1])", R"("node_instances":[-1])"},
      {R"("node_instances":[1])", R"("node_instances":[2.5])"},
      {R"("node_instances":[1])", R"("node_instances":[1e300])"},
      {R"("node_up":[1])", R"("node_up":[2])"},
      {R"("pressure_window":[0])", R"("pressure_window":[0.5])"},
  };
  for (const auto& [from, to] : out_of_range) {
    const std::string text = one_request_checkpoint_with(from, to);
    EXPECT_THROW((void)serve::peek_checkpoint(text),
                 serve::CheckpointParseError)
        << to;
  }
}

TEST(ParserRobustness, PinnedAutoscaleCheckpointCrashersThrowDocumentedType) {
  // Shared skeleton: a minimal but otherwise coherent 1-vnf/1-node
  // checkpoint, split so each crasher can corrupt exactly one seam.
  const std::string base_config =
      R"("headroom":0.1,"rebalance_threshold":0.25,"migration_budget":4,)"
      R"("queue_capacity":64,"link_latency":null,"overload_window":32,)"
      R"("overload_threshold":0.75,"degraded_headroom":0.25,)"
      R"("retry_backoff_base":4,"retry_budget":3)";
  const std::string autoscale_config =
      R"("autoscale_policy":"reactive","autoscale_interval":0.25,)"
      R"("autoscale_high":0.85,"autoscale_low":0.3,"autoscale_cooldown":2,)"
      R"("autoscale_step":1,"autoscale_alpha":0.3,"autoscale_forecast":2,)"
      R"("autoscale_margin":0.15)";
  const std::string state_head =
      R"("last_time":0,"saw_event":false,"next_seq":1,"work":0,)"
      R"("served_integral":0,"offered_integral":0,"degraded":false,)"
      R"("pressure_window":[],"node_free":[1],"node_instances":[0],)"
      R"("node_up":[1],)";
  const std::string state_tail =
      R"("live":[],"queue":[],"retry":[],"gone":[],)"
      R"("totals":{"events":0,"arrivals":0,"admitted":0,)"
      R"("admitted_from_queue":0,"rejected":0,"departures":0,)"
      R"("rate_changes":0,"shed":0,"migrations":0,"rebalances":0,)"
      R"("max_migrations_per_rebalance":0,"scale_outs":0,"scale_ins":0,)"
      R"("node_downs":0,"node_ups":0,"instances_closed":0,)"
      R"("evacuated_requests":0,"evacuation_migrations":0,"parked":0,)"
      R"("retry_admitted":0,"shed_fault":0,"shed_overload":0,)"
      R"("degradations":0,"degraded_events":0},"log":[])";
  const auto checkpoint = [&](const std::string& config_extra,
                              const std::string& instances,
                              const std::string& state_extra) {
    return R"({"schema":"nfvpr.checkpoint/1","cursor":0,"vnf_count":1,)"
           R"("node_count":1,"config":{)" +
           base_config + config_extra + "}," + state_head +
           R"("instances":[)" + instances + "]," + state_tail + state_extra +
           "}";
  };
  const std::string crashers[] = {
      // An unknown policy name, and the sentinel "off" which the writer
      // never stores (off runs omit the whole block for byte-identity).
      checkpoint(R"(,"autoscale_policy":"bogus")", "", ""),
      checkpoint(R"(,"autoscale_policy":"off")", "", ""),
      // A stored policy with the rest of the embedded knobs missing.
      checkpoint(R"(,"autoscale_policy":"predictive")", "", ""),
      // A draining instance in a checkpoint whose config never enabled
      // autoscaling — the bit has no owner to resume it.
      checkpoint("",
                 R"({"vnf":0,"node":0,"seq":0,"raw_load":0,)"
                 R"("effective_load":0,"retired":false,"draining":true,)"
                 R"("members":[]})",
                 ""),
      // Controller state present while the config says off, and the
      // mirror image: autoscaling on with the state block missing.
      checkpoint("", "",
                 R"(,"autoscale":{"window":0,"instance_seconds":0,)"
                 R"("opened":0,"drained":0,"decisions":0,"flaps":0,)"
                 R"("blocked_cooldown":0,"vnf_states":[]})"),
      checkpoint("," + autoscale_config, "", ""),
      // Autoscaling on, state present, but the per-vnf array is short.
      checkpoint("," + autoscale_config, "",
                 R"(,"autoscale":{"window":0,"instance_seconds":0,)"
                 R"("opened":0,"drained":0,"decisions":0,"flaps":0,)"
                 R"("blocked_cooldown":0,"vnf_states":[]})"),
  };
  for (const std::string& text : crashers) {
    EXPECT_THROW((void)serve::peek_checkpoint(text),
                 serve::CheckpointParseError)
        << text;
  }
}

TEST(ParserRobustness, PinnedReportCrashersAreHandled) {
  EXPECT_THROW((void)obs::load_run_report(""), std::invalid_argument);
  EXPECT_THROW((void)obs::load_run_report("node a compute 100"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::load_run_report(R"({"schema":"nfvpr.run_report/99"})"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::load_run_report("[1,2,3]"), std::invalid_argument);
  // Sections of entirely wrong JSON shape must render without throwing —
  // the printer's guards, not the schema, carry this.
  const obs::JsonValue weird = obs::load_run_report(
      R"({"schema":"nfvpr.run_report/1","placement":5,)"
      R"("scheduling":{"vnfs":[3,"x"]},)"
      R"("serve":{"churn":{"node_downs":"three"},"autoscale":[1]},)"
      R"("shard":"yes","metrics":{"counters":[1]}})");
  EXPECT_NO_THROW((void)obs::pretty_print_report(weird));
}

}  // namespace
}  // namespace nfv
