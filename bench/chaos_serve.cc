// Chaos bench for the online serving engine (DESIGN.md §13): replay an
// nfvpr.trace/2 event trace whose node population churns on an MTBF/MTTR
// schedule and measure what the fault ladder delivers — time-weighted
// availability, evacuation volume, retry outcomes, shed totals — plus the
// accounting identity that every arrival ends in exactly one bucket:
//
//   arrivals == live + queued + retrying + rejected + departed
//              + shed + shed_fault + shed_overload
//
// The bench fails (exit 1) if any request is unaccounted for or if
// availability drops below --min-availability, so CI catches a ladder
// regression even before the baseline diff runs.
//
//   bench_chaos_serve --nodes 8 --churn-nodes 4 --events 600 --json c.json
//   bench_chaos_serve -t smoke.topo -w smoke.wl -T smoke.trace.json ...
//
// Rows follow the bench_micro convention: wall-clock columns carry "wall"
// in the name (diffed generously in CI); everything else — availability,
// evacuation/shed counters, work — is bit-identical across machines and
// gated exactly.
#include <cstdio>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/table.h"
#include "nfv/serve/engine.h"
#include "nfv/workload/event_stream.h"

namespace {

using nfv::bench::Clock;
using nfv::bench::ServeFixture;
using nfv::bench::us_between;

struct ChaosResult {
  double replay_wall_us = 0.0;
  nfv::serve::ServeSummary summary;
};

ChaosResult replay_once(const ServeFixture& fx) {
  nfv::serve::ServeEngine engine(fx.topology, fx.workload.vnfs);
  const auto start = Clock::now();
  engine.replay(fx.trace);
  ChaosResult out;
  out.replay_wall_us = us_between(start, Clock::now());
  out.summary = engine.summary();
  return out;
}

/// arrivals minus the sum of every terminal/live bucket; zero when the
/// ladder never loses track of a request.
long long unaccounted(const nfv::serve::ServeSummary& s) {
  const auto accounted = s.live_requests + s.queued_requests +
                         s.retry_queued + s.rejected + s.departures + s.shed +
                         s.shed_fault + s.shed_overload;
  return static_cast<long long>(s.arrivals) -
         static_cast<long long>(accounted);
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_chaos_serve",
                     "serving engine under MTBF/MTTR node churn "
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
      "churn-nodes", 'c', "nodes on the MTBF/MTTR churn schedule", 4);
  const auto& mtbf =
      cli.add_double("mtbf", '\0', "mean seconds between failures", 4.0);
  const auto& mttr =
      cli.add_double("mttr", '\0', "mean seconds to repair", 1.0);
  const auto& min_availability = cli.add_double(
      "min-availability", '\0', "fail (exit 1) below this availability",
      0.95);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 7);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (nodes < 1 || vnfs < 1 || events < 1 || churn_nodes < 0) {
    std::fputs("bench_chaos_serve: numeric flags out of range\n", stderr);
    return 2;
  }

  ServeFixture fx;
  try {
    nfv::workload::EventStreamConfig ecfg;
    ecfg.event_count = static_cast<std::size_t>(events);
    ecfg.churn_node_count = static_cast<std::size_t>(churn_nodes);
    ecfg.node_mtbf = mtbf;
    ecfg.node_mttr = mttr;
    fx = topo_file.empty() && wl_file.empty() && trace_file.empty()
             ? nfv::bench::generated_serve_fixture(
                   static_cast<std::size_t>(nodes),
                   static_cast<std::uint32_t>(vnfs), ecfg,
                   static_cast<std::uint64_t>(seed))
             : nfv::bench::load_serve_fixture(topo_file, wl_file, trace_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_chaos_serve: %s\n", e.what());
    return 2;
  }

  nfv::bench::print_banner(
      "chaos_serve", "serve-engine availability under MTBF/MTTR node churn");

  nfv::Table table({"case", "events", "wall_us", "availability",
                    "evacuated", "parked", "retry_admitted", "shed_total",
                    "unaccounted", "work"});
  table.set_precision(6);
  const auto event_count = static_cast<long long>(fx.trace.events.size());

  bool ok = true;
  const ChaosResult r = replay_once(fx);
  const nfv::serve::ServeSummary& s = r.summary;
  const long long lost = unaccounted(s);
  table.add_row({std::string("churn_replay"), event_count, r.replay_wall_us,
                 s.availability, static_cast<long long>(s.evacuated_requests),
                 static_cast<long long>(s.parked),
                 static_cast<long long>(s.retry_admitted),
                 static_cast<long long>(s.shed + s.shed_fault +
                                        s.shed_overload),
                 lost, static_cast<long long>(s.work)});
  if (lost != 0) {
    std::fprintf(stderr,
                 "bench_chaos_serve: %lld request(s) unaccounted for\n",
                 lost);
    ok = false;
  }
  if (s.availability < min_availability) {
    std::fprintf(stderr,
                 "bench_chaos_serve: availability %.6f below floor %.6f\n",
                 s.availability, min_availability);
    ok = false;
  }

  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "chaos_serve", json);
  return ok ? 0 : 1;
}
