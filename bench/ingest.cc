// Serve-ingest benchmarks (ROADMAP O2, DESIGN.md §15): how fast events get
// from bytes into the serving engine.
//
//   bench_ingest --events 2000000 --reps 3 --json ingest.json
//
// Rows (all single-threaded — ingest is a front-door, not a fan-out):
//   btrace_decode   streaming nfvpr.btrace/1 decode, zero steady-state
//                   allocation, no materialization
//   text_decode     full text load_event_trace (a drain of the text reader:
//                   from_chars scanner + per-event validate) on the same
//                   events
//   json_dom_ref    generic obs::parse_json DOM build over the same text —
//                   the front-end cost of the pre-scanner loader, kept as a
//                   reference row for the scanner rewrite's win
//   text_serve      full serve replay streamed from the text trace through
//                   open_text_trace's reader by ServeEngine::replay, as
//                   `nfvpr serve` runs a text trace
//   btrace_serve    the same replay streamed from the binary trace
//
// Every row pairs noisy `wall_us` (CI diffs at 400%) with a deterministic
// `work` counter (CI diffs at 1%): decode rows count events + chain hops,
// serve rows the engine's own work counter.  The binary itself enforces
// the contracts CI cannot check from JSON alone and exits 1 on violation:
//   * btrace decode throughput >= --min-speedup x the text path
//   * text -> binary -> text and binary -> text -> binary byte-exact
//   * btrace_serve and text_serve end in byte-identical engine states
//     (compared via their checkpoint serializations)
#include <cstdio>
#include <string>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/rng.h"
#include "nfv/common/table.h"
#include "nfv/obs/json.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/generator.h"

namespace {

using nfv::bench::Clock;

/// Wall-clock microseconds of one call.
template <typename F>
double wall_us(F&& f) {
  const auto start = Clock::now();
  f();
  return nfv::bench::us_between(start, Clock::now());
}

/// Best (minimum) wall-clock microseconds per call over `reps` calls —
/// decode benches are memory-bound and the min is the steadiest estimator
/// of the true cost on a shared machine.
template <typename F>
double best_wall_us(std::int64_t reps, F&& f) {
  double best = 0.0;
  for (std::int64_t r = 0; r < reps; ++r) {
    const double us = wall_us(f);
    if (r == 0 || us < best) best = us;
  }
  return best;
}

nfv::workload::EventTrace make_trace(std::size_t events, std::size_t churn,
                                     std::uint64_t seed) {
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 12;
  wcfg.request_count = 50;  // only the VNF catalog and rate ranges matter
  nfv::Rng wrng(seed);
  const auto base = nfv::workload::WorkloadGenerator(wcfg).generate(wrng);
  nfv::workload::EventStreamConfig cfg;
  cfg.event_count = events;
  cfg.target_population = 200;
  cfg.churn_node_count = churn;
  cfg.node_mtbf = 40.0;
  cfg.node_mttr = 2.0;
  nfv::Rng rng(seed + 1);
  return nfv::workload::EventStreamGenerator(base, cfg).generate(rng);
}

/// Deterministic decode-work metric: one unit per event plus one per chain
/// hop (what a consumer must at minimum look at).
std::uint64_t trace_work(const nfv::workload::EventTrace& trace) {
  std::uint64_t work = trace.events.size();
  for (const auto& e : trace.events) work += e.chain.size();
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_ingest",
                     "trace ingest throughput: binary vs text vs DOM "
                     "(nfvpr.bench/1 JSON)");
  const auto& events =
      cli.add_int("events", 'e', "events in the decode trace", 2000000);
  const auto& serve_events =
      cli.add_int("serve-events", '\0', "events in the serve trace", 60000);
  const auto& reps = cli.add_int("reps", 'r', "repetitions per case", 3);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 42);
  const auto& min_speedup = cli.add_double(
      "min-speedup", '\0',
      "fail (exit 1) when btrace decode is not at least this many times "
      "faster than the text path",
      10.0);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (events < 1 || serve_events < 1 || reps < 1) {
    std::fputs("bench_ingest: --events, --serve-events and --reps must be "
               ">= 1\n",
               stderr);
    return 2;
  }
  const auto base_seed = static_cast<std::uint64_t>(seed);

  nfv::Table table({"case", "reps", "wall_us", "work"});
  table.set_precision(1);
  const auto rows = static_cast<long long>(reps);

  // --- decode rows -------------------------------------------------------
  const auto trace =
      make_trace(static_cast<std::size_t>(events), 4, base_seed);
  const std::string text = nfv::workload::save_event_trace_string(trace);
  const std::string binary = nfv::workload::save_binary_trace_string(trace);
  const std::uint64_t decode_work = trace_work(trace);

  // Round-trip contracts: the transcoder depends on these byte-exact.
  {
    const auto from_binary = nfv::workload::load_binary_trace(binary);
    if (nfv::workload::save_event_trace_string(from_binary) != text) {
      std::fputs("bench_ingest: binary -> text round trip is not "
                 "byte-exact\n",
                 stderr);
      return 1;
    }
    const auto from_text = nfv::workload::load_event_trace(text);
    if (nfv::workload::save_binary_trace_string(from_text) != binary) {
      std::fputs("bench_ingest: text -> binary round trip is not "
                 "byte-exact\n",
                 stderr);
      return 1;
    }
  }

  // The two gated decode cases alternate rep by rep, so both minima see
  // the same machine state: timing every btrace rep before every text rep
  // let one slow spell land on a single side and swing the speedup.
  double btrace_us = 0.0;
  double text_us = 0.0;
  {
    std::uint64_t btrace_work = 0;
    std::uint64_t text_work = 0;
    nfv::workload::StreamEvent event;  // chain capacity reused across reps
    for (std::int64_t r = 0; r < reps; ++r) {
      const double b = wall_us([&] {
        nfv::workload::BinaryTraceDecoder decoder(binary);
        btrace_work = 0;
        while (decoder.next(event)) btrace_work += 1 + event.chain.size();
      });
      const double t = wall_us([&] {
        const auto loaded = nfv::workload::load_event_trace(text);
        text_work = trace_work(loaded);
      });
      if (r == 0 || b < btrace_us) btrace_us = b;
      if (r == 0 || t < text_us) text_us = t;
    }
    if (btrace_work != decode_work) {
      std::fputs("bench_ingest: btrace decode work mismatch\n", stderr);
      return 1;
    }
    if (text_work != decode_work) {
      std::fputs("bench_ingest: text decode work mismatch\n", stderr);
      return 1;
    }
    table.add_row({std::string("btrace_decode"), rows, btrace_us,
                   static_cast<long long>(btrace_work)});
    table.add_row({std::string("text_decode"), rows, text_us,
                   static_cast<long long>(text_work)});
  }

  {
    // The old loader's front end (generic DOM build) on the same bytes;
    // its work counter is the event count the DOM must carry.
    std::uint64_t work = 0;
    const double us = best_wall_us(reps, [&] {
      std::string error;
      const auto doc = nfv::obs::parse_json(text, &error);
      if (!doc) {
        std::fputs("bench_ingest: DOM parse failed\n", stderr);
        std::exit(1);
      }
      work = doc->find("events")->as_array().size();
    });
    if (work != trace.events.size()) {
      std::fputs("bench_ingest: DOM event count mismatch\n", stderr);
      return 1;
    }
    table.add_row({std::string("json_dom_ref"), rows, us,
                   static_cast<long long>(work)});
  }

  // --- serve rows --------------------------------------------------------
  const auto serve_trace =
      make_trace(static_cast<std::size_t>(serve_events), 3, base_seed + 17);
  const std::string serve_text =
      nfv::workload::save_event_trace_string(serve_trace);
  const std::string serve_binary =
      nfv::workload::save_binary_trace_string(serve_trace);

  nfv::Rng trng(base_seed);
  const auto topology =
      nfv::topo::make_star(8, nfv::topo::CapacitySpec{}, nfv::topo::LinkSpec{},
                           trng);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 12;
  wcfg.request_count = 50;
  nfv::Rng wrng(base_seed);
  const auto catalog = nfv::workload::WorkloadGenerator(wcfg).generate(wrng);
  const nfv::serve::ServeConfig scfg;

  std::string text_state;
  {
    std::uint64_t work = 0;
    const double us = best_wall_us(reps, [&] {
      const auto reader = nfv::workload::open_text_trace(serve_text);
      nfv::serve::ServeEngine engine(topology, catalog.vnfs, scfg);
      engine.replay(*reader);
      work = engine.work();
      text_state =
          nfv::serve::save_checkpoint_string(engine, reader->decoded());
    });
    table.add_row({std::string("text_serve"), rows, us,
                   static_cast<long long>(work)});
  }
  {
    std::uint64_t work = 0;
    std::string state;
    const double us = best_wall_us(reps, [&] {
      nfv::workload::BinaryTraceDecoder decoder(serve_binary);
      nfv::serve::ServeEngine engine(topology, catalog.vnfs, scfg);
      engine.replay(decoder);
      work = engine.work();
      state = nfv::serve::save_checkpoint_string(engine, decoder.decoded());
    });
    if (state != text_state) {
      std::fputs("bench_ingest: binary and text serve runs diverged "
                 "(checkpoint states differ)\n",
                 stderr);
      return 1;
    }
    table.add_row({std::string("btrace_serve"), rows, us,
                   static_cast<long long>(work)});
  }

  std::fputs(table.markdown().c_str(), stdout);
  const double speedup = text_us / btrace_us;
  const double ev = static_cast<double>(trace.events.size());
  std::printf("\nbtrace decode: %.1f Mev/s, text decode: %.1f Mev/s, "
              "speedup %.1fx (gate >= %.1fx)\n",
              ev / btrace_us, ev / text_us, speedup, min_speedup);
  nfv::bench::write_table_json(table, "ingest", json);
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_ingest: FAIL btrace decode speedup %.2fx is below "
                 "the %.2fx gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
