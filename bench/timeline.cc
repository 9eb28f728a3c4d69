// Telemetry-overhead bench for the serve engine (DESIGN.md §14): replay
// the same churn trace with streaming telemetry disabled, with timeline
// snapshots on, and with snapshots + lifecycle tracing on, and gate the
// snapshot overhead:
//
//   overhead_wall_pct = 100 · (wall_on − wall_off) / wall_off   (min of reps)
//
// The bench fails (exit 1) when the timeline row's overhead exceeds
// --max-overhead-pct (default 5) — the telemetry layer must stay out of
// the serve hot path.  Wall-clock columns carry "wall" in the name and are
// diffed generously in CI; windows/availability_min/shed_total/work are
// bit-identical across machines and gated tightly.
//
//   bench_timeline -t smoke.topo -w smoke.wl -T smoke.trace.json --json t.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/table.h"
#include "nfv/obs/timeline.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/io.h"
#include "nfv/workload/event_stream.h"
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

struct Fixture {
  nfv::topo::Topology topology;
  nfv::workload::Workload workload;
  nfv::workload::EventTrace trace;
};

struct Measured {
  double wall_us = 0.0;  ///< min over reps
  nfv::serve::ServeSummary summary;
  nfv::obs::TimelineAggregates agg;  ///< zeroed when telemetry is off
  bool has_timeline = false;
};

/// One timed replay; fills summary/aggregates on the first rep only.
void replay_once(const Fixture& fx, const nfv::serve::ServeConfig& cfg,
                 Measured& out) {
  nfv::serve::ServeEngine engine(fx.topology, fx.workload.vnfs, cfg);
  const auto start = Clock::now();
  engine.replay(fx.trace);
  const double wall = us_between(start, Clock::now());
  const bool first = out.wall_us < 0.0;
  if (first || wall < out.wall_us) out.wall_us = wall;
  if (first) {
    out.summary = engine.summary();
    if (cfg.snapshot_every > 0.0) {
      out.agg = nfv::obs::aggregate_timeline(engine.timeline_doc().records);
      out.has_timeline = true;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_timeline",
                     "serve-path overhead of streaming telemetry "
                     "(nfvpr.bench/1 JSON)");
  const auto& topo_file =
      cli.add_string("topology", 't', "topology file", "");
  const auto& wl_file = cli.add_string("workload", 'w', "workload file", "");
  const auto& trace_file =
      cli.add_string("trace", 'T', "event trace file", "");
  const auto& snapshot_every = cli.add_double(
      "snapshot-every", '\0', "timeline window width (trace time)", 0.5);
  const auto& reps =
      cli.add_int("reps", 'r', "replays per case (min wall wins)", 3);
  const auto& max_overhead = cli.add_double(
      "max-overhead-pct", '\0',
      "fail (exit 1) when timeline overhead exceeds this", 5.0);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (topo_file.empty() || wl_file.empty() || trace_file.empty()) {
    std::fputs("bench_timeline: --topology, --workload and --trace are "
               "required\n",
               stderr);
    return 2;
  }
  if (reps < 1 || !(snapshot_every > 0.0)) {
    std::fputs("bench_timeline: numeric flags out of range\n", stderr);
    return 2;
  }

  Fixture fx;
  try {
    fx.topology = nfv::topo::load_topology_string(read_file(topo_file));
    fx.workload = nfv::workload::load_workload_string(read_file(wl_file));
    fx.trace = nfv::workload::load_event_trace(read_file(trace_file));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_timeline: %s\n", e.what());
    return 2;
  }

  nfv::bench::print_banner(
      "timeline", "serve-path overhead of streaming telemetry");

  nfv::serve::ServeConfig off;
  nfv::serve::ServeConfig timeline = off;
  timeline.snapshot_every = snapshot_every;
  nfv::serve::ServeConfig full = timeline;
  full.lifecycle = true;

  // Reps are interleaved round-robin so slow machine drift (thermal,
  // noisy neighbours) biases every case equally before min-of-reps.
  Measured base, snap, traced;
  base.wall_us = snap.wall_us = traced.wall_us = -1.0;
  replay_once(fx, off, base);  // warm-up: caches, allocator arenas
  base.wall_us = -1.0;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    replay_once(fx, off, base);
    replay_once(fx, timeline, snap);
    replay_once(fx, full, traced);
  }

  const auto overhead_pct = [&](const Measured& m) {
    return base.wall_us > 0.0
               ? 100.0 * (m.wall_us - base.wall_us) / base.wall_us
               : 0.0;
  };

  nfv::Table table({"case", "events", "wall_us", "overhead_wall_pct",
                    "windows", "availability_min", "shed_total", "work"});
  table.set_precision(6);
  const auto events = static_cast<long long>(fx.trace.events.size());
  const auto shed_total = [](const nfv::serve::ServeSummary& s) {
    return static_cast<long long>(s.shed + s.shed_fault + s.shed_overload);
  };
  table.add_row({std::string("telemetry_off"), events, base.wall_us, 0.0,
                 0LL, base.summary.availability, shed_total(base.summary),
                 static_cast<long long>(base.summary.work)});
  table.add_row({std::string("timeline"), events, snap.wall_us,
                 overhead_pct(snap),
                 static_cast<long long>(snap.agg.windows),
                 snap.agg.availability_min, shed_total(snap.summary),
                 static_cast<long long>(snap.summary.work)});
  table.add_row({std::string("timeline_lifecycle"), events, traced.wall_us,
                 overhead_pct(traced),
                 static_cast<long long>(traced.agg.windows),
                 traced.agg.availability_min, shed_total(traced.summary),
                 static_cast<long long>(traced.summary.work)});

  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "timeline", json);

  bool ok = true;
  // The telemetry-on replay must produce the exact same engine result —
  // the window integrals only split what the availability integral
  // already accumulates.
  if (snap.summary.availability != base.summary.availability ||
      snap.summary.work != base.summary.work) {
    std::fputs("bench_timeline: telemetry changed the replay result\n",
               stderr);
    ok = false;
  }
  if (overhead_pct(snap) > max_overhead) {
    std::fprintf(stderr,
                 "bench_timeline: timeline overhead %.2f%% exceeds "
                 "%.2f%% budget\n",
                 overhead_pct(snap), max_overhead);
    ok = false;
  }
  return ok ? 0 : 1;
}
