// Autoscale bench (DESIGN.md §16): replay a diurnal ramp + burst trace —
// optionally under MTBF/MTTR node churn — once per scaling policy and
// compare the controller's instance-seconds against an offline oracle
// that re-solves the minimal fleet at every event boundary:
//
//   oracle = ∫ Σ_f ceil(Λ_f(t) / ((1 − h) · μ_f)) dt,  Λ_f = Σ λ_r / P_r
//
// The oracle knows the whole future, pays no cooldown/hysteresis tax and
// migrates for free, so the online controller can only approach it; the
// bench fails (exit 1) when the competitive gap exceeds --max-gap-pct or
// availability drops below --min-availability, making the §16 acceptance
// bound a CI gate rather than a claim.
//
//   bench_autoscale --events 600 --churn-nodes 2 --json a.json
//   bench_autoscale -t smoke.topo -w smoke.wl -T smoke.trace.json ...
//
// Rows follow the bench_micro convention: wall-clock columns carry "wall"
// in the name (diffed generously in CI); everything else — availability,
// instance-seconds, gap, scale/flap counters, work — is bit-identical
// across machines and gated exactly.  The bench also self-checks the §16
// determinism contract: per policy, a mid-trace save/resume must land on
// the same checkpoint bytes as the uninterrupted run.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/table.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/io.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/io.h"

namespace {

using nfv::bench::Clock;
using nfv::bench::ServeFixture;
using nfv::bench::us_between;

/// Offline re-solve: walks the trace once, tracking every live request's
/// effective rate λ_r / P_r per VNF, and integrates the minimal feasible
/// fleet Σ_f ceil(Λ_f / ((1 − h) · μ_f)) between event timestamps.  Node
/// state is ignored — the oracle may pack instances anywhere — which only
/// widens the gap the online controller has to close.
double oracle_instance_seconds(const ServeFixture& fx, double headroom) {
  struct Live {
    double effective = 0.0;
    double delivery_prob = 1.0;
    std::vector<std::uint32_t> chain;
  };
  std::vector<Live> live;
  std::vector<double> offered(fx.trace.vnf_count, 0.0);
  const auto apply = [&](std::uint32_t f, double delta) {
    offered[f] += delta;
    if (offered[f] < 0.0) offered[f] = 0.0;  // float dust on departure
  };
  double total = 0.0;
  double prev_time = 0.0;
  for (const auto& ev : fx.trace.events) {
    const double dt = ev.time - prev_time;
    if (dt > 0.0) {
      double fleet = 0.0;
      for (std::uint32_t f = 0; f < fx.trace.vnf_count; ++f) {
        if (offered[f] <= 0.0) continue;
        const double cap =
            (1.0 - headroom) * fx.workload.vnfs[f].service_rate;
        fleet += std::ceil(offered[f] / cap);
      }
      total += fleet * dt;
    }
    using K = nfv::workload::StreamEventKind;
    switch (ev.kind) {
      case K::kArrive: {
        if (live.size() <= ev.request) live.resize(ev.request + 1);
        Live& r = live[ev.request];
        r.effective = ev.rate / ev.delivery_prob;
        r.delivery_prob = ev.delivery_prob;
        r.chain = ev.chain;
        for (const std::uint32_t f : r.chain) apply(f, r.effective);
        break;
      }
      case K::kDepart: {
        Live& r = live[ev.request];
        for (const std::uint32_t f : r.chain) apply(f, -r.effective);
        r.effective = 0.0;
        r.chain.clear();
        break;
      }
      case K::kRateChange: {
        // rate_change keeps the request's P_r, so the new effective rate
        // is just the new λ over the delivery probability recorded at
        // arrival.
        Live& r = live[ev.request];
        const double next = ev.rate / r.delivery_prob;
        for (const std::uint32_t f : r.chain) apply(f, next - r.effective);
        r.effective = next;
        break;
      }
      case K::kNodeDown:
      case K::kNodeUp:
        break;  // the oracle packs freely; churn does not bind it
    }
    prev_time = ev.time;
  }
  return total;
}

struct RunResult {
  double replay_wall_us = 0.0;
  nfv::serve::ServeSummary summary;
  std::string final_checkpoint;
};

/// Tunables shared by every row; only the policy varies between cases.
/// The defaults run tighter than the serve CLI's (higher low watermark, no
/// cooldown, thinner predictive margin, double migration budget) because
/// the bench measures how closely the controller can track the oracle,
/// not how gently it treats a production fleet.
struct Knobs {
  nfv::serve::AutoscaleConfig autoscale;
  std::uint32_t migration_budget = 8;
};

nfv::serve::ServeConfig make_config(const Knobs& knobs,
                                    nfv::serve::ScalePolicy policy) {
  nfv::serve::ServeConfig cfg;
  cfg.autoscale = knobs.autoscale;
  cfg.autoscale.policy = policy;
  cfg.migration_budget = knobs.migration_budget;
  return cfg;
}

RunResult replay_once(const ServeFixture& fx, const Knobs& knobs,
                      nfv::serve::ScalePolicy policy) {
  nfv::serve::ServeEngine engine(fx.topology, fx.workload.vnfs,
                                 make_config(knobs, policy));
  const auto start = Clock::now();
  engine.replay(fx.trace);
  RunResult out;
  out.replay_wall_us = us_between(start, Clock::now());
  out.summary = engine.summary();
  out.final_checkpoint =
      nfv::serve::save_checkpoint_string(engine, fx.trace.events.size());
  return out;
}

/// Serial prefix, checkpoint, resume, finish: the final checkpoint must be
/// byte-identical to the uninterrupted run's.
bool resume_matches(const ServeFixture& fx, const Knobs& knobs,
                    nfv::serve::ScalePolicy policy,
                    const std::string& want) {
  const std::size_t n = fx.trace.events.size();
  const std::size_t k = n / 2;
  nfv::serve::ServeEngine prefix(fx.topology, fx.workload.vnfs,
                                 make_config(knobs, policy));
  for (std::size_t i = 0; i < k; ++i) prefix.on_event(fx.trace.events[i]);
  const std::string ck = nfv::serve::save_checkpoint_string(prefix, k);
  std::uint64_t cursor = 0;
  nfv::serve::ServeEngine resumed = nfv::serve::restore_checkpoint(
      ck, fx.topology, fx.workload.vnfs, &cursor);
  for (std::size_t i = cursor; i < n; ++i) {
    resumed.on_event(fx.trace.events[i]);
  }
  return nfv::serve::save_checkpoint_string(resumed, n) == want;
}

long long unaccounted(const nfv::serve::ServeSummary& s) {
  const auto accounted = s.live_requests + s.queued_requests +
                         s.retry_queued + s.rejected + s.departures + s.shed +
                         s.shed_fault + s.shed_overload;
  return static_cast<long long>(s.arrivals) -
         static_cast<long long>(accounted);
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_autoscale",
                     "elastic autoscaling vs the offline re-solve oracle "
                     "(nfvpr.bench/1 JSON)");
  const auto& topo_file =
      cli.add_string("topology", 't', "topology file (empty: generate)", "");
  const auto& wl_file =
      cli.add_string("workload", 'w', "workload file (empty: generate)", "");
  const auto& trace_file =
      cli.add_string("trace", 'T', "event trace file (empty: generate)", "");
  const auto& nodes = cli.add_int("nodes", 'n', "generated topology size", 8);
  const auto& vnfs = cli.add_int("vnfs", 'f', "generated VNF count", 6);
  const auto& events =
      cli.add_int("events", 'e', "generated trace length", 600);
  const auto& churn_nodes = cli.add_int(
      "churn-nodes", 'c', "nodes on the MTBF/MTTR churn schedule", 2);
  const auto& max_gap_pct = cli.add_double(
      "max-gap-pct", '\0',
      "fail (exit 1) when instance-seconds exceed the oracle by more than "
      "this percentage",
      15.0);
  const auto& min_availability = cli.add_double(
      "min-availability", '\0', "fail (exit 1) below this availability",
      0.95);
  const auto& as_interval = cli.add_double(
      "as-interval", '\0', "autoscale decision cadence (trace time)", 0.15);
  const auto& as_high = cli.add_double(
      "as-high", '\0', "scale-out utilization watermark", 0.95);
  const auto& as_low = cli.add_double(
      "as-low", '\0', "scale-in utilization watermark", 0.80);
  const auto& as_cooldown = cli.add_int(
      "as-cooldown", '\0', "decision windows of post-action silence", 0);
  const auto& as_step = cli.add_int(
      "as-step", '\0', "max instances opened/drained per VNF per window", 4);
  const auto& as_margin = cli.add_double(
      "as-margin", '\0', "predictive headroom above the forecast", 0.05);
  const auto& migration_budget = cli.add_int(
      "migration-budget", 'K', "request moves per rebalance/drain pass", 8);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 7);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  const auto& dump_fixture = cli.add_string(
      "dump-fixture", '\0',
      "write the fixture as <prefix>.topo/.wl/.trace.json (how "
      "bench/traces/autoscale_smoke.* was produced) and keep going",
      "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (nodes < 1 || vnfs < 1 || events < 1 || churn_nodes < 0 ||
      as_cooldown < 0 || as_step < 1) {
    std::fputs("bench_autoscale: numeric flags out of range\n", stderr);
    return 2;
  }

  Knobs knobs;
  knobs.autoscale.scale_interval = as_interval;
  knobs.autoscale.high_watermark = as_high;
  knobs.autoscale.low_watermark = as_low;
  knobs.autoscale.cooldown_windows = static_cast<std::uint32_t>(as_cooldown);
  knobs.autoscale.max_step = static_cast<std::uint32_t>(as_step);
  knobs.autoscale.safety_margin = as_margin;
  if (migration_budget < 1) {
    std::fputs("bench_autoscale: --migration-budget must be >= 1\n", stderr);
    return 2;
  }
  knobs.migration_budget = static_cast<std::uint32_t>(migration_budget);
  try {
    knobs.autoscale.policy = nfv::serve::ScalePolicy::kReactive;
    knobs.autoscale.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_autoscale: %s\n", e.what());
    return 2;
  }

  ServeFixture fx;
  try {
    nfv::workload::EventStreamConfig ecfg;
    ecfg.event_count = static_cast<std::size_t>(events);
    ecfg.churn_node_count = static_cast<std::size_t>(churn_nodes);
    ecfg.node_mtbf = 6.0;
    ecfg.node_mttr = 0.5;
    // The diurnal profile the subsystem exists for: a slow ±50% swing with
    // a 2x burst riding on top (see EventStreamConfig's multiplier).
    ecfg.ramp_amplitude = 0.5;
    ecfg.ramp_period = 8.0;
    ecfg.burst_every = 5.0;
    ecfg.burst_length = 1.0;
    ecfg.burst_factor = 2.0;
    fx = topo_file.empty() && wl_file.empty() && trace_file.empty()
             ? nfv::bench::generated_serve_fixture(
                   static_cast<std::size_t>(nodes),
                   static_cast<std::uint32_t>(vnfs), ecfg,
                   static_cast<std::uint64_t>(seed))
             : nfv::bench::load_serve_fixture(topo_file, wl_file, trace_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_autoscale: %s\n", e.what());
    return 2;
  }

  if (!dump_fixture.empty()) {
    const auto write = [](const std::string& path, const std::string& body) {
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      out << body;
    };
    try {
      write(dump_fixture + ".topo",
            nfv::topo::save_topology_string(fx.topology));
      write(dump_fixture + ".wl",
            nfv::workload::save_workload_string(fx.workload));
      write(dump_fixture + ".trace.json",
            nfv::workload::save_event_trace_string(fx.trace));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_autoscale: %s\n", e.what());
      return 2;
    }
  }

  nfv::bench::print_banner(
      "autoscale",
      "online M_f control vs the offline re-solve oracle (ramp + burst)");

  const double oracle =
      oracle_instance_seconds(fx, nfv::serve::ServeConfig{}.headroom);
  const auto event_count = static_cast<long long>(fx.trace.events.size());

  nfv::Table table({"case", "events", "wall_us", "availability",
                    "instance_seconds", "oracle_instance_seconds", "gap_pct",
                    "scale_outs", "scale_ins", "flaps", "unaccounted",
                    "work"});
  table.set_precision(6);

  bool ok = true;
  for (const nfv::serve::ScalePolicy policy :
       {nfv::serve::ScalePolicy::kReactive,
        nfv::serve::ScalePolicy::kPredictive}) {
    const std::string name(nfv::serve::to_string(policy));
    const RunResult r = replay_once(fx, knobs, policy);
    const nfv::serve::ServeSummary& s = r.summary;
    const double gap_pct =
        oracle > 0.0 ? (s.instance_seconds - oracle) / oracle * 100.0 : 0.0;
    const long long lost = unaccounted(s);
    table.add_row({name, event_count, r.replay_wall_us, s.availability,
                   s.instance_seconds, oracle, gap_pct,
                   static_cast<long long>(s.scale_outs),
                   static_cast<long long>(s.scale_ins),
                   static_cast<long long>(s.autoscale_flaps), lost,
                   static_cast<long long>(s.work)});
    if (gap_pct > max_gap_pct) {
      std::fprintf(stderr,
                   "bench_autoscale: %s gap %.2f%% above ceiling %.2f%%\n",
                   name.c_str(), gap_pct, static_cast<double>(max_gap_pct));
      ok = false;
    }
    if (s.availability < min_availability) {
      std::fprintf(stderr,
                   "bench_autoscale: %s availability %.6f below floor "
                   "%.6f\n",
                   name.c_str(), s.availability, min_availability);
      ok = false;
    }
    if (lost != 0) {
      std::fprintf(stderr,
                   "bench_autoscale: %s %lld request(s) unaccounted for\n",
                   name.c_str(), lost);
      ok = false;
    }
    if (!resume_matches(fx, knobs, policy, r.final_checkpoint)) {
      std::fprintf(stderr,
                   "bench_autoscale: %s mid-trace save/resume is not "
                   "byte-identical\n",
                   name.c_str());
      ok = false;
    }
  }

  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "autoscale", json);
  return ok ? 0 : 1;
}
