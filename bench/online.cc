// Online-vs-offline optimality gap for the serving engine (not a paper
// figure): replay one event trace through serve::ServeEngine and, every
// --resolve-every events, re-solve the current live set from scratch with
// the offline two-phase pipeline (core::JointOptimizer).  The gap between
// the engine's predicted Eq. 16 mean latency and the offline optimum says
// how much the bounded-migration policy gives up by never mass-reshuffling.
//
//   bench_online --events 400 --resolve-every 50 --json o.json
//   bench_online -t smoke.topo -w smoke.wl -T smoke.trace.json --json o.json
//
// Rows follow the bench_micro convention: every wall-clock column has
// "wall" in its name (CI diffs those with a generous threshold) while the
// deterministic columns — `gap_pct` and `work`, bit-identical across
// machines — are gated tightly.  Everything runs on one thread: the
// engine has no parallel site, and the offline re-solves are too small
// for a fan-out to pay.
//
// Together the rows compare three rebalancing policies on one trace:
// serve_replay is the threshold-triggered bounded rebalance (the default
// ServeConfig), serve_never replays with migration_budget = 0 so no
// rebalance ever moves a request, and offline_resolve is the oracle the
// gaps are measured against.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/rng.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/topology/io.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/generator.h"
#include "nfv/workload/io.h"

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::micro>(stop - start).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Everything one replay needs; either loaded from files or generated.
struct Fixture {
  nfv::topo::Topology topology;
  nfv::workload::Workload workload;
  nfv::workload::EventTrace trace;
};

Fixture generated_fixture(std::int64_t nodes, std::int64_t vnfs,
                          std::int64_t events, std::uint64_t seed) {
  Fixture fx;
  nfv::Rng rng(seed);
  fx.topology = nfv::topo::make_star(static_cast<std::size_t>(nodes),
                                     {1000.0, 5000.0}, {}, rng);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = static_cast<std::uint32_t>(vnfs);
  wcfg.request_count = 40;  // chain templates for the stream generator
  wcfg.chain_template_count = 8;
  fx.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
  nfv::workload::EventStreamConfig ecfg;
  ecfg.event_count = static_cast<std::size_t>(events);
  fx.trace =
      nfv::workload::EventStreamGenerator(fx.workload, ecfg).generate(rng);
  return fx;
}

/// One full replay under `config`, with offline re-solves of the live set
/// every `resolve_every` events (and after the last one).
struct ReplayResult {
  double replay_wall_us = 0.0;        ///< whole-trace replay
  double decision_wall_us_mean = 0.0; ///< per-event engine latency
  double decision_wall_us_p99 = 0.0;
  double offline_wall_us = 0.0;       ///< total across re-solves
  double gap_pct = 0.0;               ///< mean over comparable re-solves
  std::uint64_t resolves = 0;
  std::uint64_t serve_work = 0;       ///< deterministic engine effort
  std::uint64_t offline_work = 0;     ///< Σ scheduling work of re-solves
};

ReplayResult replay_once(const Fixture& fx,
                         const nfv::serve::ServeConfig& config,
                         std::int64_t resolve_every, std::uint64_t seed) {
  nfv::serve::ServeEngine engine(fx.topology, fx.workload.vnfs, config);

  // Same L as the engine (which defaults to the topology mean), so the
  // gap isolates partition quality rather than link-cost bookkeeping.
  nfv::core::JointConfig jcfg;
  jcfg.link_latency = fx.topology.mean_link_latency();
  const nfv::core::JointOptimizer offline(jcfg);

  ReplayResult out;
  std::vector<double> decision_us;
  decision_us.reserve(fx.trace.events.size());
  double gap_sum = 0.0;
  std::uint64_t gap_points = 0;

  const auto resolve_now = [&](double online_mean) {
    nfv::core::SystemModel model;
    model.topology = fx.topology;
    model.workload = engine.live_workload();
    if (model.workload.requests.empty()) return;
    const auto start = Clock::now();
    const auto result = offline.run(model, seed);
    out.offline_wall_us += us_between(start, Clock::now());
    ++out.resolves;
    for (const auto& schedule : result.schedules) {
      out.offline_work += schedule.work;
    }
    if (result.feasible && result.job_rejection_rate == 0.0 &&
        result.avg_total_latency > 0.0) {
      gap_sum += 100.0 * (online_mean - result.avg_total_latency) /
                 result.avg_total_latency;
      ++gap_points;
    }
  };

  const auto replay_start = Clock::now();
  double last_mean = 0.0;
  for (std::size_t i = 0; i < fx.trace.events.size(); ++i) {
    const auto start = Clock::now();
    const auto outcome = engine.on_event(fx.trace.events[i]);
    decision_us.push_back(us_between(start, Clock::now()));
    last_mean = outcome.mean_predicted_latency;
    if (resolve_every > 0 &&
        (i + 1) % static_cast<std::size_t>(resolve_every) == 0 &&
        i + 1 < fx.trace.events.size()) {
      resolve_now(last_mean);
    }
  }
  out.replay_wall_us = us_between(replay_start, Clock::now());
  resolve_now(last_mean);

  double total_us = 0.0;
  for (const double us : decision_us) total_us += us;
  if (!decision_us.empty()) {
    out.decision_wall_us_mean =
        total_us / static_cast<double>(decision_us.size());
    std::sort(decision_us.begin(), decision_us.end());
    const auto idx = static_cast<std::size_t>(std::ceil(
                         0.99 * static_cast<double>(decision_us.size()))) -
                     1;
    out.decision_wall_us_p99 = decision_us[idx];
  }
  out.gap_pct = gap_points > 0 ? gap_sum / static_cast<double>(gap_points)
                               : 0.0;
  out.serve_work = engine.work();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_online",
                     "serving engine vs repeated offline re-solves "
                     "(nfvpr.bench/1 JSON)");
  const auto& topo_file =
      cli.add_string("topology", 't', "topology file (empty: generate)", "");
  const auto& wl_file =
      cli.add_string("workload", 'w', "workload file (empty: generate)", "");
  const auto& trace_file =
      cli.add_string("trace", 'T', "event trace file (empty: generate)", "");
  const auto& nodes = cli.add_int("nodes", 'n', "generated topology size", 10);
  const auto& vnfs = cli.add_int("vnfs", 'f', "generated VNF count", 8);
  const auto& events =
      cli.add_int("events", 'e', "generated trace length", 400);
  const auto& resolve_every = cli.add_int(
      "resolve-every", 'R', "events between offline re-solves", 50);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 7);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (nodes < 1 || vnfs < 1 || events < 1 || resolve_every < 1) {
    std::fputs("bench_online: numeric flags must be >= 1\n", stderr);
    return 2;
  }
  const auto base_seed = static_cast<std::uint64_t>(seed);

  Fixture fx;
  try {
    if (!topo_file.empty() || !wl_file.empty() || !trace_file.empty()) {
      if (topo_file.empty() || wl_file.empty() || trace_file.empty()) {
        std::fputs(
            "bench_online: --topology, --workload and --trace go together\n",
            stderr);
        return 2;
      }
      fx.topology = nfv::topo::load_topology_string(read_file(topo_file));
      fx.workload = nfv::workload::load_workload_string(read_file(wl_file));
      fx.trace = nfv::workload::load_event_trace(read_file(trace_file));
    } else {
      fx = generated_fixture(nodes, vnfs, events, base_seed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_online: %s\n", e.what());
    return 2;
  }

  nfv::bench::print_banner(
      "online", "serve-engine replay vs repeated full offline re-solves");

  nfv::Table table({"case", "events", "wall_us",
                    "decision_wall_us_mean", "decision_wall_us_p99",
                    "gap_pct", "work"});
  table.set_precision(3);
  const auto event_count = static_cast<long long>(fx.trace.events.size());

  const ReplayResult r = replay_once(fx, {}, resolve_every, base_seed);
  table.add_row({std::string("serve_replay"), event_count, r.replay_wall_us,
                 r.decision_wall_us_mean, r.decision_wall_us_p99, r.gap_pct,
                 static_cast<long long>(r.serve_work)});
  // The offline comparator runs inside replay_once; its cost is the
  // re-solves' total.
  table.add_row({std::string("offline_resolve"),
                 static_cast<long long>(r.resolves), r.offline_wall_us, 0.0,
                 0.0, r.gap_pct, static_cast<long long>(r.offline_work)});
  nfv::serve::ServeConfig never;
  never.migration_budget = 0;
  const ReplayResult n = replay_once(fx, never, resolve_every, base_seed);
  table.add_row({std::string("serve_never"), event_count, n.replay_wall_us,
                 n.decision_wall_us_mean, n.decision_wall_us_p99, n.gap_pct,
                 static_cast<long long>(n.serve_work)});

  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "online", json);
  return 0;
}
