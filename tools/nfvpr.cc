// nfvpr — command-line front-end for the library.
//
//   nfvpr generate-topology --kind star --nodes 10 > dc.topo
//   nfvpr generate-workload --vnfs 12 --requests 100 > peak.wl
//   nfvpr place    --topology dc.topo --workload peak.wl --algorithm BFDSU
//   nfvpr schedule --workload peak.wl --vnf 0 --algorithm RCKK
//   nfvpr pipeline --topology dc.topo --workload peak.wl
//                  --metrics-out run.json --trace-out trace.json
//   nfvpr simulate --topology dc.topo --workload peak.wl --duration 60
//   nfvpr report   --in run.json                   # pretty-print
//   nfvpr report   --in run.json --baseline old.json   # diff
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "nfv/common/cli.h"
#include "nfv/common/error.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/core/report_builder.h"
#include "nfv/core/sim_builder.h"
#include "nfv/core/solver.h"
#include "nfv/core/tail_prediction.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/lifecycle.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/report.h"
#include "nfv/obs/timeline.h"
#include "nfv/obs/trace.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/sim/des.h"
#include "nfv/topology/builders.h"
#include "nfv/topology/io.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/event_stream.h"
#include "nfv/workload/generator.h"
#include "nfv/workload/io.h"

namespace {

int usage() {
  std::fputs(
      "nfvpr — NFV chain placement & request scheduling toolkit\n"
      "\n"
      "subcommands:\n"
      "  generate-topology  emit a topology file (star/leafspine/fattree/random)\n"
      "  generate-workload  emit a workload file from the VNF catalog\n"
      "  place              run a placement algorithm, print the assignment\n"
      "  schedule           run a scheduler for one VNF, print instance loads\n"
      "  pipeline           run the full two-phase optimization (Eq. 16)\n"
      "  tail               per-request latency tail predictions (p50/p95/p99)\n"
      "  simulate           optimize, then replay packet-level and compare\n"
      "  generate-trace     emit an event trace (nfvpr.trace/1, or /2 with\n"
      "                     node churn; --binary for compact nfvpr.btrace/1)\n"
      "                     from a workload\n"
      "  transcode-trace    convert an event trace text <-> binary\n"
      "                     (byte-exact round trip in both directions)\n"
      "  serve              replay an event trace through the online serving\n"
      "                     engine (admission, bounded migration, scale out/in,\n"
      "                     node-failure evacuation, checkpoint/resume,\n"
      "                     streaming telemetry: --snapshot-every,\n"
      "                     --timeline-out, --lifecycle-out, --flight-recorder;\n"
      "                     text and binary traces auto-detected by magic)\n"
      "  analyze-timeline   summarize a timeline stream (nfvpr.timeline/1):\n"
      "                     aggregates, worst windows, --fail-on CI gates\n"
      "  report             pretty-print a run report, or diff two reports\n"
      "\n"
      "place/schedule/pipeline/simulate/serve accept --metrics-out\n"
      "<path> (JSON run report), --trace-out <path> (Chrome trace-event JSON)\n"
      "and --threads N (parallel fan-out; results are identical for any N).\n"
      "place/pipeline/serve also accept --solver bfdsu|pso|lp|portfolio\n"
      "(race placement backends under --work-budget; every race is\n"
      "bit-identical for any --threads — see DESIGN.md §17).\n"
      "\n"
      "run 'nfvpr <subcommand> --help' for flags.\n"
      "\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage, 3 infeasible result,\n"
      "            4 infeasible problem (nfv::InfeasibleError),\n"
      "            5 invalid argument (failed precondition)\n",
      stderr);
  return 2;
}

/// Exit code for a false parse(): 0 when --help was asked for, 2 (usage
/// error) otherwise.
int parse_exit(const nfv::CliParser& cli) {
  return cli.help_requested() ? 0 : 2;
}

/// Count flags are cast to unsigned widths, where a negative value would
/// wrap to a huge count; returns false (after a one-line message) so the
/// caller exits 2 instead.
bool non_negative(const char* command, const char* flag, std::int64_t value) {
  if (value >= 0) return true;
  std::fprintf(stderr, "nfvpr %s: --%s must be >= 0\n", command, flag);
  return false;
}

nfv::workload::Workload read_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload file " + path);
  return nfv::workload::load_workload(in);
}

/// Every byte left in `in`, in one string.  When `path` names a regular
/// file its size is known, so the bytes are read straight into a string of
/// that size; otherwise they are appended chunk by chunk.  An
/// ostringstream would briefly hold a large trace twice (its buffer and
/// str()'s copy), which sets the peak RSS of a text-trace run.
std::string read_stream(std::istream& in, const std::string& path) {
  std::error_code not_regular;
  const std::uintmax_t size = std::filesystem::file_size(path, not_regular);
  std::string bytes;
  if (!not_regular) {
    bytes.resize(size);
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
  }
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_stream(in, path);
}

/// read_file, with "-" meaning stdin.
std::string read_input(const std::string& path) {
  return path == "-" ? read_stream(std::cin, "/dev/stdin") : read_file(path);
}

/// Registers --topology / --workload on a subcommand; load() reads both.
struct ModelFlags {
  explicit ModelFlags(nfv::CliParser& cli,
                      std::string workload_help = "workload file")
      : topology(cli.add_string("topology", 't', "topology file", "")),
        workload(
            cli.add_string("workload", 'w', std::move(workload_help), "")) {}

  /// Both flags are required: returns false (after a one-line message)
  /// when either is missing, so the caller exits 2 instead of failing to
  /// open an empty path.
  [[nodiscard]] bool given(const char* command) const {
    if (!topology.empty() && !workload.empty()) return true;
    std::fprintf(stderr, "nfvpr %s: --topology and --workload are required\n",
                 command);
    return false;
  }

  [[nodiscard]] nfv::core::SystemModel load() const {
    std::ifstream in(topology);
    if (!in) throw std::runtime_error("cannot open topology file " + topology);
    return {nfv::topo::load_topology(in), read_workload(workload)};
  }

  const std::string& topology;
  const std::string& workload;
};

/// A name no algorithm registry knows is a usage error: exit 2.
int unknown_algorithm(const std::string& name) {
  std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
  return 2;
}

/// "A|B|C" from a registry's names, for an --algorithm help line.
std::string choices(const std::vector<std::string>& names) {
  std::string joined;
  for (const auto& name : names) joined += (joined.empty() ? "" : "|") + name;
  return joined;
}

/// Registers --threads on a subcommand and owns the worker pool for the
/// command's lifetime.  Results are bit-identical for any thread count
/// (DESIGN.md §10), so --threads is purely a wall-clock knob.
class ThreadsFlag {
 public:
  explicit ThreadsFlag(nfv::CliParser& cli)
      : threads_(cli.add_int(
            "threads", 'j', "worker threads for parallel fan-out (>= 1)", 1)) {
  }

  /// Validates the value and installs a process-global pool when > 1.
  /// Returns false on out-of-range input (callers exit 2: usage error).
  [[nodiscard]] bool install() {
    if (threads_ < 1) {
      std::fprintf(stderr, "--threads must be >= 1 (got %lld)\n",
                   static_cast<long long>(threads_));
      return false;
    }
    pool_.emplace(static_cast<std::uint32_t>(threads_));
    return true;
  }

  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(threads_);
  }

 private:
  const std::int64_t& threads_;
  std::optional<nfv::exec::LocalPool> pool_;
};

/// Registers the --solver flag family (DESIGN.md §17) on a subcommand.
/// Off when --solver is omitted — the command keeps its legacy path and
/// byte-identical output.  The work budget is validated even when off, so
/// a nonsense value never silently rides along.
class SolverFlags {
 public:
  explicit SolverFlags(nfv::CliParser& cli)
      : solver_(cli.add_string(
            "solver", '\0',
            "race placement backends: bfdsu|pso|lp|portfolio (races all "
            "three; off when omitted)",
            "")),
        work_budget_(cli.add_int(
            "work-budget", '\0',
            "work units (placement iterations) per backend (0 = backend "
            "defaults)",
            0)) {}

  [[nodiscard]] bool enabled() const { return !solver_.empty(); }

  /// Returns false (callers exit 2: usage error) on an unknown solver id
  /// or an out-of-range work budget.
  [[nodiscard]] bool validate() const {
    try {
      (void)config();
      return true;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
  }

  [[nodiscard]] nfv::core::SolverConfig config() const {
    if (work_budget_ < 0) {
      throw std::invalid_argument("solver: work budget must be >= 0");
    }
    nfv::core::SolverConfig cfg;
    if (enabled()) cfg.solver = solver_;
    cfg.work_budget = static_cast<std::uint64_t>(work_budget_);
    cfg.validate();
    return cfg;
  }

  /// Names the placement in a run report: the race winner's backend under
  /// --solver, `algorithm` otherwise.
  void describe(nfv::core::ReportInputs& inputs,
                const nfv::core::SolverOutcome& race,
                const std::string& algorithm) const {
    inputs.placement_algorithm = algorithm;
    if (!enabled()) return;
    inputs.placement_algorithm =
        nfv::core::PortfolioDriver::backend_algorithm(race.winner);
    inputs.solver = &race;
    inputs.solver_id = config().solver;
  }

 private:
  const std::string& solver_;
  const std::int64_t& work_budget_;
};

/// One human-readable line for a finished race.
void print_solver_outcome(const nfv::core::SolverOutcome& outcome,
                          std::FILE* out = stdout) {
  std::string detail;
  for (const nfv::core::BackendRun& b : outcome.backends) {
    if (!detail.empty()) detail += ", ";
    detail += b.id;
    detail += b.feasible ? "" : " (infeasible)";
  }
  std::fprintf(out, "solver race           : %s wins [%s]\n",
               outcome.winner.c_str(), detail.c_str());
}

/// Writes the run report `inputs` describe to `path`.
void write_report(const nfv::core::ReportInputs& inputs,
                  const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  nfv::obs::write_run_report(nfv::core::build_run_report(inputs), os);
}

/// Registers --metrics-out / --trace-out on a subcommand and owns the
/// telemetry sinks.  activate() installs them globally after parse();
/// finish() uninstalls them and writes the files.  Commands call finish()
/// on infeasible exits too, so a failed run still leaves evidence behind.
class Telemetry {
 public:
  explicit Telemetry(nfv::CliParser& cli)
      : metrics_out_(cli.add_string("metrics-out", '\0',
                                    "write a JSON run report here", "")),
        trace_out_(cli.add_string("trace-out", '\0',
                                  "write Chrome trace-event JSON here", "")) {
  }

  void activate() {
    if (!metrics_out_.empty()) {
      registry_ = std::make_unique<nfv::obs::MetricsRegistry>();
      install_metrics_.emplace(*registry_);
    }
    if (!trace_out_.empty()) {
      tracer_ = std::make_unique<nfv::obs::Tracer>();
      install_tracing_.emplace(*tracer_);
    }
  }

  /// True when --metrics-out was given (commands may run extra stages,
  /// e.g. pipeline's DES replay, only when someone is watching).
  [[nodiscard]] bool metrics_enabled() const { return registry_ != nullptr; }

  void finish(nfv::core::ReportInputs inputs) {
    if (registry_ != nullptr) {
      install_metrics_.reset();  // uninstall before snapshotting
      inputs.metrics = registry_.get();
      write_report(inputs, metrics_out_);
      registry_.reset();
    }
    if (tracer_ != nullptr) {
      install_tracing_.reset();
      std::ofstream os(trace_out_);
      if (!os) throw std::runtime_error("cannot open " + trace_out_);
      tracer_->write_json(os);
      tracer_.reset();
    }
  }

 private:
  const std::string& metrics_out_;
  const std::string& trace_out_;
  std::unique_ptr<nfv::obs::MetricsRegistry> registry_;
  std::unique_ptr<nfv::obs::Tracer> tracer_;
  std::optional<nfv::obs::ScopedMetrics> install_metrics_;
  std::optional<nfv::obs::ScopedTracing> install_tracing_;
};

int cmd_generate_topology(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr generate-topology", "emit a topology file");
  const auto& kind =
      cli.add_string("kind", 'k', "star|leafspine|fattree|random", "star");
  const auto& nodes = cli.add_int("nodes", 'n', "compute nodes (star/random)", 10);
  const auto& cap_min = cli.add_double("cap-min", '\0', "min capacity", 1000.0);
  const auto& cap_max = cli.add_double("cap-max", '\0', "max capacity", 5000.0);
  const auto& latency = cli.add_double("latency", 'l', "per-link latency", 1e-4);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  const auto& fat_k = cli.add_int("fat-k", '\0', "fat-tree arity (even)", 4);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!non_negative("generate-topology", "nodes", nodes) ||
      !non_negative("generate-topology", "fat-k", fat_k)) {
    return 2;
  }
  nfv::Rng rng(static_cast<std::uint64_t>(seed));
  const nfv::topo::CapacitySpec cap{cap_min, cap_max};
  const nfv::topo::LinkSpec link{latency};
  nfv::topo::Topology t;
  if (kind == "star") {
    t = nfv::topo::make_star(static_cast<std::size_t>(nodes), cap, link, rng);
  } else if (kind == "leafspine") {
    t = nfv::topo::make_leaf_spine(2, 4,
                                   std::max<std::size_t>(1,
                                       static_cast<std::size_t>(nodes) / 4),
                                   cap, link, rng);
  } else if (kind == "fattree") {
    t = nfv::topo::make_fat_tree(static_cast<std::size_t>(fat_k), cap, link,
                                 rng);
  } else if (kind == "random") {
    t = nfv::topo::make_random_connected(static_cast<std::size_t>(nodes), 3.0,
                                         cap, link, rng);
  } else {
    std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
    return 2;
  }
  nfv::topo::save_topology(t, std::cout);
  return 0;
}

int cmd_generate_workload(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr generate-workload", "emit a workload file");
  const auto& vnfs = cli.add_int("vnfs", 'f', "VNF count", 12);
  const auto& requests = cli.add_int("requests", 'n', "request count", 100);
  const auto& templates =
      cli.add_int("templates", 't', "chain templates (0 = unlimited)", 0);
  const auto& delivery =
      cli.add_double("delivery-prob", 'p', "P per request", 0.98);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!non_negative("generate-workload", "vnfs", vnfs) ||
      !non_negative("generate-workload", "requests", requests) ||
      !non_negative("generate-workload", "templates", templates)) {
    return 2;
  }
  nfv::workload::WorkloadConfig cfg;
  cfg.vnf_count = static_cast<std::uint32_t>(vnfs);
  cfg.request_count = static_cast<std::uint32_t>(requests);
  cfg.chain_template_count = static_cast<std::uint32_t>(templates);
  cfg.delivery_prob = delivery;
  nfv::Rng rng(static_cast<std::uint64_t>(seed));
  const auto w = nfv::workload::WorkloadGenerator(cfg).generate(rng);
  nfv::workload::save_workload(w, std::cout);
  return 0;
}

int cmd_place(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr place", "run a placement algorithm");
  const ModelFlags files(cli);
  const auto& algorithm = cli.add_string(
      "algorithm", 'a', choices(nfv::placement::placement_algorithm_names()),
      "BFDSU");
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  ThreadsFlag threads(cli);
  SolverFlags solver(cli);
  Telemetry tele(cli);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!threads.install()) return 2;
  if (!solver.validate()) return 2;
  if (!files.given("place")) return 2;
  std::unique_ptr<nfv::placement::PlacementAlgorithm> algo;
  if (!solver.enabled()) {
    // --solver overrides --algorithm, so the name is only resolved (and
    // rejected) on the legacy path.
    algo = nfv::placement::make_placement_algorithm(algorithm);
    if (!algo) return unknown_algorithm(algorithm);
  }
  const nfv::core::SystemModel model = files.load();
  // No solver backend reads chains; only a chain-aware --algorithm does.
  auto problem =
      nfv::placement::make_packing_problem(model.topology, model.workload);
  if (algo && algo->reads_chains()) {
    nfv::placement::add_chains(problem, model.workload);
  }
  tele.activate();
  nfv::placement::Placement placement;
  nfv::core::SolverOutcome race;  // report/summary shell for --solver
  if (solver.enabled()) {
    nfv::core::JointConfig jcfg;
    jcfg.exec.threads = threads.count();
    const nfv::core::SolverConfig scfg = solver.config();
    const nfv::core::PortfolioDriver driver(jcfg, scfg);
    nfv::core::PlacementOutcome raced =
        driver.place(problem, static_cast<std::uint64_t>(seed));
    placement = std::move(raced.placement);
    race.winner = raced.winner;
    race.budget_work = scfg.work_budget;
    race.backends = std::move(raced.backends);
  } else {
    nfv::Rng rng(static_cast<std::uint64_t>(seed));
    placement = algo->place(problem, rng);
  }

  // The report carries the placement section only; scheduling/request
  // sections stay absent for a placement-only run.
  nfv::core::JointResult partial;
  partial.placement = placement;
  if (placement.feasible) {
    partial.placement_metrics = nfv::placement::evaluate(problem, placement);
  }
  nfv::core::ReportInputs inputs;
  inputs.command = "place";
  inputs.seed = static_cast<std::uint64_t>(seed);
  solver.describe(inputs, race, algorithm);
  inputs.model = &model;
  inputs.result = &partial;
  tele.finish(inputs);

  if (!placement.feasible) {
    std::puts("INFEASIBLE — not every VNF fits");
    return 3;
  }
  const auto& metrics = partial.placement_metrics;
  nfv::Table table({"vnf", "node", "footprint"});
  table.set_precision(1);
  for (std::size_t f = 0; f < model.workload.vnfs.size(); ++f) {
    table.add_row({model.workload.vnfs[f].name,
                   model.topology.label(*placement.assignment[f]),
                   model.workload.vnfs[f].total_demand()});
  }
  std::fputs(table.markdown().c_str(), stdout);
  std::printf(
      "\nnodes in service %zu / %zu, avg utilization %.1f%%, occupation "
      "%.0f, iterations %llu\n",
      metrics.nodes_in_service, model.topology.compute_count(),
      100.0 * metrics.avg_utilization_of_used, metrics.resource_occupation,
      static_cast<unsigned long long>(placement.iterations));
  if (solver.enabled()) print_solver_outcome(race);
  return 0;
}

int cmd_schedule(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr schedule", "schedule one VNF's requests");
  const auto& workload_file = cli.add_string("workload", 'w', "workload file", "");
  const auto& vnf = cli.add_int("vnf", 'f', "VNF index", 0);
  const auto& algorithm = cli.add_string(
      "algorithm", 'a', choices(nfv::sched::scheduling_algorithm_names()),
      "RCKK");
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  ThreadsFlag threads(cli);
  Telemetry tele(cli);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!threads.install()) return 2;
  if (!non_negative("schedule", "vnf", vnf)) return 2;
  if (workload_file.empty()) {
    std::fputs("nfvpr schedule: --workload is required\n", stderr);
    return 2;
  }
  const auto workload = read_workload(workload_file);
  if (static_cast<std::size_t>(vnf) >= workload.vnfs.size()) {
    std::fprintf(stderr, "nfvpr schedule: --vnf %lld out of range (have %zu)\n",
                 static_cast<long long>(vnf), workload.vnfs.size());
    return 2;
  }
  const auto problem = nfv::sched::make_problem(
      workload, nfv::VnfId{static_cast<std::uint32_t>(vnf)});
  const auto algo = nfv::sched::make_scheduling_algorithm(algorithm);
  if (!algo) return unknown_algorithm(algorithm);
  tele.activate();
  nfv::Rng rng(static_cast<std::uint64_t>(seed));
  const auto schedule = algo->schedule(problem, rng);
  const auto metrics = nfv::sched::evaluate(problem, schedule);
  const auto admission = nfv::sched::apply_admission(problem, schedule);

  // Single-VNF run: the structured sections do not apply; the registry
  // snapshot (scheduler work counters, spans) is the payload.
  nfv::core::ReportInputs inputs;
  inputs.command = "schedule";
  inputs.seed = static_cast<std::uint64_t>(seed);
  inputs.scheduling_algorithm = algorithm;
  tele.finish(inputs);

  nfv::Table table({"instance", "requests", "load pps", "rho", "W"});
  table.set_precision(4);
  std::vector<long long> counts(problem.instance_count, 0);
  for (const auto k : schedule.instance_of) ++counts[k];
  for (std::uint32_t k = 0; k < problem.instance_count; ++k) {
    const double rho = metrics.utilization[k];
    table.add_row({static_cast<long long>(k), counts[k],
                   metrics.instance_load[k], rho,
                   rho < 1.0 ? (rho > 0.0
                                    ? (rho / (1.0 - rho)) /
                                          metrics.instance_load[k]
                                    : 1.0 / (problem.mean_prob() *
                                             problem.service_rate))
                             : -1.0});
  }
  std::fputs(table.markdown().c_str(), stdout);
  std::printf("\navg W %.5f, imbalance %.2f, rejection %.2f%%, work %llu\n",
              metrics.avg_response, metrics.imbalance,
              100.0 * admission.rejection_rate,
              static_cast<unsigned long long>(schedule.work));
  return metrics.stable ? 0 : 3;
}

int cmd_pipeline(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr pipeline", "full two-phase optimization");
  const ModelFlags files(cli);
  const auto& placer = cli.add_string("placement", 'p', "placement algorithm",
                                      "BFDSU");
  const auto& scheduler =
      cli.add_string("scheduling", 'q', "scheduling algorithm", "RCKK");
  const auto& link = cli.add_double("link-latency", 'l',
                                    "L of Eq. 16 (default: topology mean)",
                                    -1.0);
  const auto& sim_duration = cli.add_double(
      "sim-duration", '\0',
      "DES replay seconds for the run report (0 = skip; only runs when "
      "--metrics-out is set)",
      20.0);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  const auto& report_out = cli.add_string(
      "report-out", '\0',
      "write the run report here (deterministic: no registry snapshot, "
      "byte-identical for any --threads)", "");
  ThreadsFlag threads(cli);
  SolverFlags solver(cli);
  Telemetry tele(cli);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!threads.install()) return 2;
  if (!solver.validate()) return 2;
  if (!files.given("pipeline")) return 2;
  // Unknown algorithm names are usage errors, surfaced before any file is
  // read (--solver supplies its own placement backends).
  if (!solver.enabled() &&
      nfv::placement::make_placement_algorithm(placer) == nullptr) {
    return unknown_algorithm(placer);
  }
  if (nfv::sched::make_scheduling_algorithm(scheduler) == nullptr) {
    return unknown_algorithm(scheduler);
  }
  const nfv::core::SystemModel model = files.load();
  nfv::core::JointConfig cfg;
  cfg.placement_algorithm = placer;
  cfg.scheduling_algorithm = scheduler;
  if (link >= 0.0) cfg.link_latency = link;
  cfg.exec.threads = threads.count();
  tele.activate();
  nfv::core::SolverOutcome race;  // populated only with --solver
  nfv::core::JointResult result;
  if (solver.enabled()) {
    race = nfv::core::PortfolioDriver(cfg, solver.config())
               .run(model, static_cast<std::uint64_t>(seed));
    result = std::move(race.result);
  } else {
    result = nfv::core::JointOptimizer(cfg).run(
        model, static_cast<std::uint64_t>(seed));
  }

  nfv::core::ReportInputs inputs;
  inputs.command = "pipeline";
  inputs.seed = static_cast<std::uint64_t>(seed);
  solver.describe(inputs, race, placer);
  inputs.scheduling_algorithm = scheduler;
  inputs.model = &model;
  inputs.result = &result;

  // The deterministic report: structured sections only, no
  // metrics-registry snapshot (exec counters vary with --threads; this file
  // must not).  Written on infeasible runs too.
  if (!report_out.empty()) write_report(inputs, report_out);

  if (!result.feasible) {
    tele.finish(inputs);
    std::puts("INFEASIBLE — placement failed");
    return 3;
  }

  // A metrics-observed pipeline also replays the deployment packet-level,
  // so the run report carries measured DES counters next to the analytic
  // Eq. 16 numbers.
  std::optional<nfv::sim::SimResult> sim;
  if (tele.metrics_enabled() && sim_duration > 0.0) {
    const auto build = nfv::core::build_sim_network(model, result);
    nfv::sim::SimConfig sim_cfg;
    sim_cfg.duration = sim_duration;
    sim_cfg.warmup = sim_duration * 0.1;
    sim_cfg.seed = static_cast<std::uint64_t>(seed) + 1;
    sim = nfv::sim::simulate(build.network, sim_cfg);
    inputs.sim = &*sim;
  }
  tele.finish(inputs);

  std::printf("nodes in service      : %zu / %zu\n",
              result.placement_metrics.nodes_in_service,
              model.topology.compute_count());
  std::printf("avg node utilization  : %.1f%%\n",
              100.0 * result.placement_metrics.avg_utilization_of_used);
  std::printf("avg instance response : %.5f\n", result.avg_response);
  std::printf("avg request latency   : %.5f (Eq. 16)\n",
              result.avg_total_latency);
  std::printf("job rejection rate    : %.2f%%\n",
              100.0 * result.job_rejection_rate);
  if (solver.enabled()) print_solver_outcome(race);
  if (sim) {
    std::printf("DES replay events     : %llu (%.0f s)\n",
                static_cast<unsigned long long>(sim->events_processed),
                sim_duration);
  }
  return 0;
}

int cmd_tail(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr tail", "per-request latency tail predictions");
  const ModelFlags files(cli);
  const auto& top = cli.add_int("top", 'n', "show the N busiest requests", 10);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!files.given("tail")) return 2;
  const nfv::core::SystemModel model = files.load();
  const auto result = nfv::core::JointOptimizer{nfv::core::JointConfig{}}.run(
      model, static_cast<std::uint64_t>(seed));
  if (!result.feasible) {
    std::puts("INFEASIBLE — placement failed");
    return 3;
  }
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < result.requests.size(); ++r) {
    if (result.requests[r].admitted) order.push_back(r);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return model.workload.requests[a].arrival_rate >
           model.workload.requests[b].arrival_rate;
  });
  nfv::Table table({"request", "rate pps", "chain len", "mean", "p50",
                    "p95", "p99", "method"});
  table.set_precision(5);
  for (std::size_t i = 0;
       i < order.size() && i < static_cast<std::size_t>(top); ++i) {
    const auto id = nfv::RequestId{static_cast<std::uint32_t>(order[i])};
    const auto p = nfv::core::predict_request_tail(model, result, id);
    table.add_row({static_cast<long long>(id.value()),
                   model.workload.requests[id.index()].arrival_rate,
                   static_cast<long long>(
                       model.workload.requests[id.index()].chain.size()),
                   p.mean, p.p50, p.p95, p.p99,
                   std::string(p.exact ? "closed form" : "sampled")});
  }
  std::fputs(table.markdown().c_str(), stdout);
  return 0;
}

int cmd_simulate(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr simulate", "optimize then replay packet-level");
  const ModelFlags files(cli);
  const auto& duration = cli.add_double("duration", 'd', "simulated seconds", 60.0);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  ThreadsFlag threads(cli);
  Telemetry tele(cli);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!threads.install()) return 2;
  if (!files.given("simulate")) return 2;
  const nfv::core::SystemModel model = files.load();
  tele.activate();
  const auto result = nfv::core::JointOptimizer{nfv::core::JointConfig{}}.run(
      model, static_cast<std::uint64_t>(seed));

  nfv::core::ReportInputs inputs;
  inputs.command = "simulate";
  inputs.seed = static_cast<std::uint64_t>(seed);
  inputs.model = &model;
  inputs.result = &result;

  if (!result.feasible) {
    tele.finish(inputs);
    std::puts("INFEASIBLE — placement failed");
    return 3;
  }
  const auto build = nfv::core::build_sim_network(model, result);
  nfv::sim::SimConfig sim_cfg;
  sim_cfg.duration = duration;
  sim_cfg.warmup = duration * 0.1;
  sim_cfg.seed = static_cast<std::uint64_t>(seed) + 1;
  const auto sim = nfv::sim::simulate(build.network, sim_cfg);
  inputs.sim = &sim;
  tele.finish(inputs);

  double predicted = 0.0;
  double measured = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < sim.flows.size(); ++i) {
    if (sim.flows[i].delivered == 0) continue;
    const auto id = build.flow_request[i];
    const auto w = static_cast<double>(sim.flows[i].delivered);
    predicted += result.requests[id.index()].total_latency() * w;
    measured += sim.flows[i].end_to_end.mean() * w;
    weight += w;
  }
  std::printf("events processed  : %llu\n",
              static_cast<unsigned long long>(sim.events_processed));
  std::printf("predicted latency : %.5f (Eq. 16 analytic)\n",
              predicted / weight);
  std::printf("measured latency  : %.5f (packet-level DES)\n",
              measured / weight);
  std::printf("difference        : %.1f%%\n",
              100.0 * (measured - predicted) / predicted);
  return 0;
}

int cmd_generate_trace(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr generate-trace",
                     "emit an event trace (nfvpr.trace/1) from a workload");
  const auto& workload_file = cli.add_string("workload", 'w', "workload file", "");
  const auto& events = cli.add_int("events", 'e', "event count", 500);
  const auto& interarrival =
      cli.add_double("mean-interarrival", 'i', "mean seconds between events",
                     0.05);
  const auto& population = cli.add_int(
      "population", 'n', "target live-request population", 40);
  const auto& rate_change = cli.add_double(
      "rate-change-fraction", 'r', "fraction of events that are RATE_CHANGE",
      0.15);
  const auto& sigma = cli.add_double(
      "sigma-log", '\0', "lognormal spread of arrival rates (0 = uniform)",
      0.0);
  const auto& delivery =
      cli.add_double("delivery-prob", 'p', "P_r per request", 0.98);
  const auto& churn_nodes = cli.add_int(
      "churn-nodes", '\0',
      "interleave MTBF/MTTR node churn for this many nodes (0 = off; "
      "emits schema nfvpr.trace/2)", 0);
  const auto& mtbf = cli.add_double(
      "mtbf", '\0', "mean seconds between failures per churned node", 2.0);
  const auto& mttr = cli.add_double(
      "mttr", '\0', "mean seconds to repair per churned node", 0.5);
  const auto& ramp_amplitude = cli.add_double(
      "ramp-amplitude", '\0',
      "sinusoidal rate swing in [0, 1) around the sampled rate (0 = off)",
      0.0);
  const auto& ramp_period = cli.add_double(
      "ramp-period", '\0', "period of the rate ramp in trace seconds", 0.0);
  const auto& burst_every = cli.add_double(
      "burst-every", '\0',
      "burst cycle length in trace seconds (0 = no bursts)", 0.0);
  const auto& burst_length = cli.add_double(
      "burst-length", '\0', "burst duration within each cycle", 0.0);
  const auto& burst_factor = cli.add_double(
      "burst-factor", '\0', "rate multiplier (>= 1) inside a burst", 1.0);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 1);
  const auto& binary = cli.add_flag(
      "binary", 'b',
      "emit the compact binary format (nfvpr.btrace/1) instead of JSON");
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (workload_file.empty()) {
    std::fputs("nfvpr generate-trace: --workload is required\n", stderr);
    return 2;
  }
  if (!non_negative("generate-trace", "events", events) ||
      !non_negative("generate-trace", "population", population) ||
      !non_negative("generate-trace", "churn-nodes", churn_nodes)) {
    return 2;
  }
  const auto base = read_workload(workload_file);
  nfv::workload::EventStreamConfig cfg;
  cfg.event_count = static_cast<std::size_t>(events);
  cfg.mean_interarrival = interarrival;
  cfg.target_population = static_cast<std::size_t>(population);
  cfg.rate_change_fraction = rate_change;
  cfg.delivery_prob = delivery;
  cfg.rate_sigma_log = sigma;
  cfg.churn_node_count = static_cast<std::size_t>(churn_nodes);
  cfg.node_mtbf = mtbf;
  cfg.node_mttr = mttr;
  cfg.ramp_amplitude = ramp_amplitude;
  cfg.ramp_period = ramp_period;
  cfg.burst_every = burst_every;
  cfg.burst_length = burst_length;
  cfg.burst_factor = burst_factor;
  nfv::Rng rng(static_cast<std::uint64_t>(seed));
  const auto trace =
      nfv::workload::EventStreamGenerator(base, cfg).generate(rng);
  if (binary) {
    nfv::workload::save_binary_trace(trace, std::cout);
  } else {
    nfv::workload::save_event_trace(trace, std::cout);
  }
  return 0;
}

int cmd_transcode_trace(int argc, const char* const* argv) {
  nfv::CliParser cli(
      "nfvpr transcode-trace",
      "convert an event trace between text (nfvpr.trace/1|2) and binary "
      "(nfvpr.btrace/1); both directions round-trip byte-exactly");
  const auto& in = cli.add_string("in", 'i', "input trace ('-' = stdin)", "-");
  const auto& out =
      cli.add_string("out", 'o', "output file ('-' = stdout)", "-");
  const auto& to = cli.add_string(
      "to", '\0',
      "target format: auto | text | binary (auto flips the input format)",
      "auto");
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (to != "auto" && to != "text" && to != "binary") {
    std::fprintf(stderr,
                 "nfvpr transcode-trace: --to must be auto, text or binary "
                 "(got '%s')\n",
                 to.c_str());
    return 2;
  }
  try {
    const std::string input = read_input(in);
    const bool from_binary = nfv::workload::is_binary_trace(input);
    const auto trace = from_binary
                           ? nfv::workload::load_binary_trace(input)
                           : nfv::workload::load_event_trace(input);
    const bool to_binary = to == "binary" || (to == "auto" && !from_binary);
    const auto emit = [&](std::ostream& os) {
      if (to_binary) {
        nfv::workload::save_binary_trace(trace, os);
      } else {
        nfv::workload::save_event_trace(trace, os);
      }
    };
    if (out == "-") {
      emit(std::cout);
    } else {
      std::ofstream os(out, std::ios::binary);
      if (!os) throw std::runtime_error("cannot open " + out);
      emit(os);
    }
    return 0;
  } catch (const nfv::workload::TraceParseError& e) {
    std::fprintf(stderr, "nfvpr transcode-trace: bad trace: %s\n", e.what());
    return 2;
  }
}

int cmd_serve(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr serve",
                     "replay an event trace through the online serving engine");
  const ModelFlags files(cli, "workload file (VNF catalog; requests ignored)");
  const auto& trace_file = cli.add_string(
      "trace", 'T',
      "event trace (nfvpr.trace/1, /2, or binary nfvpr.btrace/1)", "");
  const auto& headroom = cli.add_double(
      "headroom", 'H', "stability margin in [0, 1)", 0.10);
  const auto& rebalance = cli.add_double(
      "rebalance-threshold", 'R', "relative imbalance that triggers a "
      "bounded rebalance", 0.25);
  const auto& budget = cli.add_int(
      "migration-budget", 'K', "max request moves per rebalance", 4);
  const auto& queue_cap = cli.add_int(
      "queue-capacity", 'Q', "waiting room size (0 rejects immediately)", 64);
  const auto& link = cli.add_double(
      "link-latency", 'l', "L of Eq. 16 (default: topology mean)", -1.0);
  const auto& overload_window = cli.add_int(
      "overload-window", '\0',
      "events of sustained pressure before degraded mode (0 disables)", 32);
  const auto& degraded_headroom = cli.add_double(
      "degraded-headroom", '\0',
      "tightened headroom while degraded (>= --headroom, < 1)", 0.25);
  const auto& checkpoint_out = cli.add_string(
      "checkpoint-out", '\0',
      "write a crash-safe checkpoint (nfvpr.checkpoint/1) here", "");
  const auto& checkpoint_every = cli.add_int(
      "checkpoint-every", '\0',
      "rewrite --checkpoint-out every N events (0: only at the end)", 0);
  const auto& resume_file = cli.add_string(
      "resume", '\0',
      "resume from this checkpoint (engine config comes from the file; "
      "the final report is byte-identical to the uninterrupted run)", "");
  const auto& report_out = cli.add_string(
      "report-out", '\0',
      "write the serve run report here (deterministic: no registry "
      "snapshot, byte-identical for any --threads)", "");
  const auto& with_events = cli.add_flag(
      "events-log", '\0', "include per-event decisions in the report");
  const auto& snapshot_every = cli.add_double(
      "snapshot-every", '\0',
      "close a timeline window every N trace-time units (event-time driven; "
      "the stream is byte-identical for any --threads; 0 = off)",
      0.0);
  const auto& timeline_span = cli.add_int(
      "timeline-span", '\0',
      "windows in the sliding admission-wait percentile span (>= 1)", 8);
  const auto& timeline_out = cli.add_string(
      "timeline-out", '\0',
      "write the nfvpr.timeline/1 JSONL stream here ('-' = stdout, human "
      "summary moves to stderr); requires --snapshot-every", "");
  const auto& lifecycle_out = cli.add_string(
      "lifecycle-out", '\0',
      "write per-request lifecycle spans (Chrome trace-event JSON, schema "
      "nfvpr.lifecycle/1) here", "");
  const auto& flight_cap = cli.add_int(
      "flight-recorder", '\0',
      "flight-recorder size: dump the last K engine decisions (>= 1)", 256);
  const auto& flight_out = cli.add_string(
      "flight-recorder-out", '\0',
      "dump the tail of the engine's decision log (nfvpr.flight/1) here "
      "on crash and on every checkpoint write", "");
  const auto& flight_dump_on_exit = cli.add_flag(
      "flight-recorder-dump-on-exit", '\0',
      "also dump the flight recorder on normal exit (requires "
      "--flight-recorder-out)");
  const auto& autoscale = cli.add_string(
      "autoscale", '\0',
      "elastic per-VNF instance sizing: off, reactive (utilization bands + "
      "hysteresis), or predictive (EWMA forecast + safety margin)", "off");
  const auto& as_interval = cli.add_double(
      "as-interval", '\0',
      "autoscale decision cadence in trace-time units", 0.5);
  const auto& as_high = cli.add_double(
      "as-high", '\0', "scale-out utilization watermark in (0, 1]", 0.80);
  const auto& as_low = cli.add_double(
      "as-low", '\0', "scale-in utilization watermark in [0, --as-high)",
      0.30);
  const auto& as_cooldown = cli.add_int(
      "as-cooldown", '\0',
      "decision windows a VNF stays silent after an action", 2);
  const auto& as_step = cli.add_int(
      "as-step", '\0', "max instances opened/drained per VNF per window", 1);
  const auto& as_alpha = cli.add_double(
      "as-alpha", '\0', "predictive EWMA smoothing factor in (0, 1]", 0.30);
  const auto& as_forecast = cli.add_double(
      "as-forecast", '\0',
      "predictive look-ahead horizon in decision windows", 2.0);
  const auto& as_margin = cli.add_double(
      "as-margin", '\0',
      "predictive fractional capacity headroom above the forecast", 0.15);
  const auto& seed = cli.add_int("seed", 's', "RNG seed (recorded only; the "
                                 "engine is deterministic)", 1);
  ThreadsFlag threads(cli);
  // --solver runs an offline re-solve of the live state after the replay,
  // racing placement backends (DESIGN.md §17) — the consolidation gap
  // between online serving and a from-scratch optimum.
  SolverFlags solver(cli);
  Telemetry tele(cli);
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (!threads.install()) return 2;
  if (!solver.validate()) return 2;
  if (files.topology.empty() || files.workload.empty() || trace_file.empty()) {
    std::fputs("nfvpr serve: --topology, --workload and --trace are required\n",
               stderr);
    return 2;
  }
  if (budget < 0 || queue_cap < 0 || overload_window < 0 ||
      checkpoint_every < 0) {
    std::fputs("nfvpr serve: flag value out of range\n", stderr);
    return 2;
  }
  if (timeline_span < 1) {
    std::fputs("nfvpr serve: --timeline-span must be >= 1\n", stderr);
    return 2;
  }
  if (flight_cap < 1) {
    std::fputs("nfvpr serve: --flight-recorder must be >= 1\n", stderr);
    return 2;
  }
  if (flight_dump_on_exit && flight_out.empty()) {
    std::fputs(
        "nfvpr serve: --flight-recorder-dump-on-exit requires "
        "--flight-recorder-out\n",
        stderr);
    return 2;
  }
  nfv::serve::ServeConfig cfg;
  cfg.headroom = headroom;
  cfg.rebalance_threshold = rebalance;
  cfg.migration_budget = static_cast<std::uint32_t>(budget);
  cfg.queue_capacity = static_cast<std::size_t>(queue_cap);
  if (link >= 0.0) cfg.link_latency = link;
  cfg.overload_window = static_cast<std::size_t>(overload_window);
  cfg.degraded_headroom = degraded_headroom;
  cfg.snapshot_every = snapshot_every;
  cfg.timeline_span = static_cast<std::size_t>(timeline_span);
  cfg.lifecycle = !lifecycle_out.empty();
  const auto policy = nfv::serve::parse_scale_policy(autoscale);
  if (!policy) {
    std::fprintf(stderr,
                 "nfvpr serve: unknown --autoscale policy '%s' (expected "
                 "off, reactive, or predictive)\n",
                 autoscale.c_str());
    return 2;
  }
  if (as_cooldown < 0 || as_step < 1) {
    std::fputs("nfvpr serve: autoscale flag value out of range\n", stderr);
    return 2;
  }
  cfg.autoscale.policy = *policy;
  cfg.autoscale.scale_interval = as_interval;
  cfg.autoscale.high_watermark = as_high;
  cfg.autoscale.low_watermark = as_low;
  cfg.autoscale.cooldown_windows = static_cast<std::uint32_t>(as_cooldown);
  cfg.autoscale.max_step = static_cast<std::uint32_t>(as_step);
  cfg.autoscale.ewma_alpha = as_alpha;
  cfg.autoscale.forecast_windows = as_forecast;
  cfg.autoscale.safety_margin = as_margin;
  try {
    // NaN and out-of-range policy knobs are CLI misuse, not a runtime
    // failure: map the precondition throw to the usage exit code.
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "nfvpr serve: invalid config: %s\n", e.what());
    return 2;
  }

  try {
    const auto [topology, workload] = files.load();
    // The trace streams one event at a time through a reader picked by
    // magic bytes (binary nfvpr.btrace/1, else text nfvpr.trace/1|2); no
    // EventTrace is built.  A text trace's invariants are checked as each
    // event is read, so one broken late stops the run there, with every
    // event before it applied, as a corrupt binary record does.
    const std::string trace_bytes = read_file(trace_file);
    std::unique_ptr<nfv::workload::TraceReader> reader;
    nfv::workload::BinaryTraceDecoder* binary = nullptr;  // cursor access
    if (nfv::workload::is_binary_trace(trace_bytes)) {
      auto decoder =
          std::make_unique<nfv::workload::BinaryTraceDecoder>(trace_bytes);
      binary = decoder.get();
      reader = std::move(decoder);
    } else {
      reader = nfv::workload::open_text_trace(trace_bytes);
    }
    const std::uint32_t trace_vnfs = reader->vnf_count();
    if (trace_vnfs > workload.vnfs.size()) {
      std::fprintf(stderr,
                   "nfvpr serve: trace references %u VNFs but the workload "
                   "defines only %zu\n",
                   trace_vnfs, workload.vnfs.size());
      return 2;
    }

    tele.activate();
    std::uint64_t start = 0;
    std::optional<nfv::serve::ServeEngine> engine;
    if (!resume_file.empty()) {
      nfv::serve::BinaryTraceCursor bcursor;
      bool has_bcursor = false;
      engine.emplace(nfv::serve::restore_checkpoint(
          read_file(resume_file), topology, workload.vnfs, &start, &bcursor,
          &has_bcursor));
      if (binary != nullptr && has_bcursor &&
          start <= binary->event_count()) {
        // O(1) resume: land the decoder exactly where the checkpointed
        // run left it (offset + XOR delta base).
        binary->seek(bcursor.byte_offset, start, bcursor.time_bits);
      } else {
        // Hop event to event (the text reader validates what it skips)
        // until the cursor, or until a cursor past the end runs it dry.
        try {
          reader->skip(start);
        } catch (const nfv::workload::TraceParseError&) {
          if (!reader->done()) throw;
          std::fprintf(stderr,
                       "nfvpr serve: checkpoint cursor %llu is past the end "
                       "of the trace (%llu events)\n",
                       static_cast<unsigned long long>(start),
                       static_cast<unsigned long long>(reader->decoded()));
          return 2;
        }
      }
    } else {
      engine.emplace(topology, workload.vnfs, cfg);
    }
    // On --resume the effective config comes from the checkpoint; the
    // output flags must agree with what the engine actually recorded.
    if (!timeline_out.empty() && engine->config().snapshot_every <= 0.0) {
      std::fputs("nfvpr serve: --timeline-out requires --snapshot-every > 0\n",
                 stderr);
      return 2;
    }
    if (!lifecycle_out.empty() && !engine->config().lifecycle) {
      std::fputs(
          "nfvpr serve: --lifecycle-out given but the resumed checkpoint "
          "was recorded without a lifecycle log\n",
          stderr);
      return 2;
    }

    // The flight recorder is the tail of the engine's event log: the last
    // K decisions, resumed runs included (the checkpoint carries the log).
    const auto dump_flight = [&]() {
      if (flight_out.empty()) return;
      std::ofstream os(flight_out);
      if (!os) throw std::runtime_error("cannot open " + flight_out);
      nfv::serve::write_flight_dump(
          *engine, static_cast<std::size_t>(flight_cap), os);
    };

    const auto checkpoint = [&](std::uint64_t applied) {
      if (checkpoint_out.empty()) return;
      std::ofstream os(checkpoint_out);
      if (!os) throw std::runtime_error("cannot open " + checkpoint_out);
      if (binary != nullptr) {
        // Binary runs record the decoder position so --resume can seek
        // instead of re-hopping every earlier record.
        const nfv::serve::BinaryTraceCursor bcur{binary->byte_offset(),
                                                 binary->last_time_bits()};
        nfv::serve::save_checkpoint(*engine, applied, os, &bcur);
      } else {
        nfv::serve::save_checkpoint(*engine, applied, os);
      }
      // A checkpoint marks a moment someone may later debug from; pin the
      // decision ring that led here next to it.
      dump_flight();
    };
    try {
      // Each chunk ends at the next multiple of --checkpoint-every, so
      // checkpoints land at the same event counts, and thus the same
      // states, for either format and any resume point.  One more goes
      // out when the reader runs dry, unless this run applied nothing
      // since its last checkpoint or its resume point.
      const auto every = static_cast<std::uint64_t>(checkpoint_every);
      std::uint64_t applied = start;
      for (;;) {
        const std::uint64_t limit =
            every > 0 ? (applied / every + 1) * every - applied
                      : ~std::uint64_t{0};
        const std::uint64_t n = engine->replay(*reader, limit);
        applied += n;
        if (n > 0 || applied == 0) checkpoint(applied);
        if (n < limit) break;
      }
    } catch (...) {
      // Crash dump: the last K decisions are exactly what a post-mortem
      // needs, and the log holds every event that completed.
      dump_flight();
      throw;
    }
    if (flight_dump_on_exit) dump_flight();
    const auto summary = engine->summary();

    nfv::core::ReportInputs inputs;
    inputs.command = "serve";
    inputs.seed = static_cast<std::uint64_t>(seed);
    inputs.serve = nfv::serve::report_section(*engine, with_events);
    // The deterministic report: serve section only, no metrics-registry
    // snapshot (exec counters vary with --threads; this file must not).
    if (!report_out.empty()) write_report(inputs, report_out);
    tele.finish(inputs);

    if (!timeline_out.empty()) {
      const nfv::obs::TimelineDoc tdoc = engine->timeline_doc();
      if (timeline_out == "-") {
        nfv::obs::write_timeline(tdoc, std::cout);
      } else {
        std::ofstream os(timeline_out);
        if (!os) throw std::runtime_error("cannot open " + timeline_out);
        nfv::obs::write_timeline(tdoc, os);
      }
    }
    if (!lifecycle_out.empty()) {
      std::ofstream os(lifecycle_out);
      if (!os) throw std::runtime_error("cannot open " + lifecycle_out);
      const double trace_end =
          engine->log().empty() ? 0.0 : engine->log().back().time;
      nfv::obs::write_lifecycle_trace(engine->lifecycle_log(), trace_end, os);
    }

    // With the timeline on stdout the stream must stay machine-parseable,
    // so the human summary moves to stderr.
    std::FILE* hout = timeline_out == "-" ? stderr : stdout;
    std::fprintf(hout, "events                : %llu (%llu arrivals)\n",
                static_cast<unsigned long long>(summary.events),
                static_cast<unsigned long long>(summary.arrivals));
    std::fprintf(hout, "admitted              : %llu (+%llu from queue, +%llu "
                "retried), %llu rejected\n",
                static_cast<unsigned long long>(summary.admitted),
                static_cast<unsigned long long>(summary.admitted_from_queue),
                static_cast<unsigned long long>(summary.retry_admitted),
                static_cast<unsigned long long>(summary.rejected));
    std::fprintf(hout, "shed                  : %llu (+%llu fault, +%llu overload)\n",
                static_cast<unsigned long long>(summary.shed),
                static_cast<unsigned long long>(summary.shed_fault),
                static_cast<unsigned long long>(summary.shed_overload));
    std::fprintf(hout, "admission rate        : %.1f%%\n",
                100.0 * summary.admission_rate);
    std::fprintf(hout, "migrations            : %llu over %llu rebalances "
                "(max %llu per pass, K=%u)\n",
                static_cast<unsigned long long>(summary.migrations),
                static_cast<unsigned long long>(summary.rebalances),
                static_cast<unsigned long long>(
                    summary.max_migrations_per_rebalance),
                engine->config().migration_budget);
    std::fprintf(hout, "scale out / in        : %llu / %llu\n",
                static_cast<unsigned long long>(summary.scale_outs),
                static_cast<unsigned long long>(summary.scale_ins));
    std::fprintf(hout, "live at end           : %llu requests on %llu instances "
                "(%llu nodes), %llu queued, %llu retrying\n",
                static_cast<unsigned long long>(summary.live_requests),
                static_cast<unsigned long long>(summary.active_instances),
                static_cast<unsigned long long>(summary.nodes_in_service),
                static_cast<unsigned long long>(summary.queued_requests),
                static_cast<unsigned long long>(summary.retry_queued));
    if (summary.node_downs + summary.node_ups > 0) {
      std::fprintf(hout, "node churn            : %llu down / %llu up, "
                  "%llu instances closed\n",
                  static_cast<unsigned long long>(summary.node_downs),
                  static_cast<unsigned long long>(summary.node_ups),
                  static_cast<unsigned long long>(summary.instances_closed));
      std::fprintf(hout, "evacuations           : %llu requests (%llu migrations), "
                  "%llu parked\n",
                  static_cast<unsigned long long>(summary.evacuated_requests),
                  static_cast<unsigned long long>(
                      summary.evacuation_migrations),
                  static_cast<unsigned long long>(summary.parked));
    }
    if (summary.degradations > 0) {
      std::fprintf(hout, "degraded mode         : entered %llu times "
                  "(%llu events)\n",
                  static_cast<unsigned long long>(summary.degradations),
                  static_cast<unsigned long long>(summary.degraded_events));
    }
    if (engine->config().autoscale.enabled()) {
      std::fprintf(
          hout,
          "autoscale (%s)  : %llu decisions, %llu opened / %llu drained, "
          "%llu flaps, %llu cooldown-blocked\n",
          std::string(nfv::serve::to_string(engine->config().autoscale.policy))
              .c_str(),
          static_cast<unsigned long long>(summary.autoscale_decisions),
          static_cast<unsigned long long>(summary.autoscale_scale_outs),
          static_cast<unsigned long long>(summary.autoscale_scale_ins),
          static_cast<unsigned long long>(summary.autoscale_flaps),
          static_cast<unsigned long long>(summary.autoscale_blocked_cooldown));
      std::fprintf(hout,
                   "instance-seconds      : %.4f (%llu draining at end)\n",
                   summary.instance_seconds,
                   static_cast<unsigned long long>(summary.draining_instances));
    }
    std::fprintf(hout, "availability          : %.4f\n", summary.availability);
    std::fprintf(hout, "predicted latency     : mean %.5f s, p99 %.5f s (Eq. 16)\n",
                summary.mean_predicted_latency,
                summary.p99_predicted_latency);
    if (solver.enabled() && summary.live_requests > 0) {
      // Offline re-solve of the live state: the consolidation gap between
      // the online deployment and a from-scratch optimum.
      try {
        nfv::core::SystemModel live_model;
        live_model.topology = topology;
        live_model.workload = engine->live_workload();
        nfv::core::JointConfig jcfg;
        jcfg.link_latency = engine->config().link_latency;
        const nfv::core::SolverOutcome race =
            nfv::core::PortfolioDriver(jcfg, solver.config())
                .run(live_model, static_cast<std::uint64_t>(seed));
        if (race.result.feasible) {
          std::fprintf(
              hout,
              "offline re-solve      : %zu nodes vs %llu live "
              "(avg latency %.5f s)\n",
              race.result.placement_metrics.nodes_in_service,
              static_cast<unsigned long long>(summary.nodes_in_service),
              race.result.avg_total_latency);
          print_solver_outcome(race, hout);
        } else {
          std::fprintf(hout, "%s\n", "offline re-solve      : infeasible");
        }
      } catch (const std::exception& e) {
        // A live state the offline solver cannot model (e.g. a VNF with
        // no live members) skips the comparison, never fails the replay.
        std::fprintf(hout, "offline re-solve      : skipped (%s)\n", e.what());
      }
    }
    if (summary.arrivals > 0 &&
        summary.admitted + summary.admitted_from_queue == 0) {
      std::fprintf(hout, "%s\n", "INFEASIBLE — no arrival could be admitted");
      return 3;
    }
    return 0;
  } catch (const nfv::workload::TraceParseError& e) {
    // A malformed or inconsistent trace is misuse of the CLI, not a
    // runtime failure: exit 2 like any other usage error.
    std::fprintf(stderr, "nfvpr serve: bad trace: %s\n", e.what());
    return 2;
  } catch (const nfv::serve::CheckpointParseError& e) {
    // Likewise for a truncated, corrupt, or mismatched checkpoint.
    std::fprintf(stderr, "nfvpr serve: bad checkpoint: %s\n", e.what());
    return 2;
  }
}

int cmd_analyze_timeline(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr analyze-timeline",
                     "summarize a timeline stream (nfvpr.timeline/1)");
  const auto& in = cli.add_string(
      "in", 'i', "timeline JSONL file ('-' = stdin)", "-");
  const auto& top = cli.add_int(
      "top", 'n', "show the N worst windows by availability", 3);
  const auto& fail_on = cli.add_string(
      "fail-on", '\0',
      "exit 3 when 'name<thr' or 'name>thr' holds for a whole-stream "
      "aggregate, e.g. availability_min<0.95 or shed_total>10", "");
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (top < 0) {
    std::fputs("nfvpr analyze-timeline: --top must be >= 0\n", stderr);
    return 2;
  }

  // Parse --fail-on before reading the stream: a malformed expression is a
  // usage error regardless of the input.
  std::string fail_name;
  char fail_op = '\0';
  double fail_threshold = 0.0;
  if (!fail_on.empty()) {
    const std::size_t pos = fail_on.find_first_of("<>");
    std::size_t consumed = 0;
    if (pos != std::string::npos && pos > 0) {
      fail_name = fail_on.substr(0, pos);
      fail_op = fail_on[pos];
      try {
        fail_threshold = std::stod(fail_on.substr(pos + 1), &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
    }
    if (fail_op == '\0' || consumed != fail_on.size() - fail_name.size() - 1) {
      std::fprintf(stderr,
                   "nfvpr analyze-timeline: bad --fail-on expression '%s' "
                   "(expected name<value or name>value)\n",
                   fail_on.c_str());
      return 2;
    }
  }

  const std::string text = read_input(in);
  try {
    const nfv::obs::TimelineDoc doc = nfv::obs::load_timeline(text);
    const nfv::obs::TimelineAggregates agg =
        nfv::obs::aggregate_timeline(doc.records);
    const auto values = nfv::obs::aggregate_values(agg);

    std::printf("timeline: %llu windows of %g s, %llu nodes\n",
                static_cast<unsigned long long>(agg.windows),
                doc.snapshot_every,
                static_cast<unsigned long long>(doc.nodes));
    std::size_t width = 0;
    for (const auto& [name, value] : values) {
      width = std::max(width, name.size());
    }
    for (const auto& [name, value] : values) {
      std::printf("  %-*s : %.17g\n", static_cast<int>(width), name.c_str(),
                  value);
    }

    if (top > 0 && !doc.records.empty()) {
      // Worst windows by availability (ties break to the earlier window so
      // the table is deterministic).
      std::vector<std::size_t> order(doc.records.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return doc.records[a].availability <
                                doc.records[b].availability;
                       });
      nfv::Table table({"window", "t_start", "avail", "offered", "carried",
                        "shed", "queued", "down"});
      table.set_precision(4);
      for (std::size_t i = 0;
           i < order.size() && i < static_cast<std::size_t>(top); ++i) {
        const nfv::obs::TimelineRecord& r = doc.records[order[i]];
        table.add_row({static_cast<long long>(r.window), r.t_start,
                       r.availability, r.offered_rate, r.carried_rate,
                       static_cast<long long>(r.shed),
                       static_cast<long long>(r.queued),
                       static_cast<long long>(r.nodes_down)});
      }
      std::printf("\nworst windows:\n");
      std::fputs(table.markdown().c_str(), stdout);
    }

    if (!fail_on.empty()) {
      const auto it =
          std::find_if(values.begin(), values.end(),
                       [&](const auto& nv) { return nv.first == fail_name; });
      if (it == values.end()) {
        std::fprintf(stderr,
                     "nfvpr analyze-timeline: unknown aggregate '%s' in "
                     "--fail-on\n",
                     fail_name.c_str());
        return 2;
      }
      const bool violated = fail_op == '<' ? it->second < fail_threshold
                                           : it->second > fail_threshold;
      if (violated) {
        std::fprintf(stderr,
                     "nfvpr analyze-timeline: FAIL %s = %.17g violates "
                     "%s%c%.17g (worst window %llu @ t=%.17g)\n",
                     fail_name.c_str(), it->second, fail_name.c_str(),
                     fail_op, fail_threshold,
                     static_cast<unsigned long long>(agg.worst_window),
                     agg.worst_window_t_start);
        return 3;
      }
      std::printf("\nfail-on check ok: %s = %.17g\n", fail_name.c_str(),
                  it->second);
    }
    return 0;
  } catch (const nfv::obs::TimelineParseError& e) {
    // Malformed input is CLI misuse, matching the trace/checkpoint policy.
    std::fprintf(stderr, "nfvpr analyze-timeline: bad timeline: %s\n",
                 e.what());
    return 2;
  }
}

int cmd_report(int argc, const char* const* argv) {
  nfv::CliParser cli("nfvpr report",
                     "pretty-print a run report, or diff two reports");
  const auto& in = cli.add_string("in", 'i', "run report JSON (current)", "");
  const auto& baseline = cli.add_string(
      "baseline", 'b', "baseline report to diff --in against", "");
  const auto& threshold = cli.add_double(
      "threshold", '\0',
      "min |%change| for a timing (wall, speedup) to count as a "
      "regression/improvement; any other change is a CHANGED answer",
      1.0);
  const auto& fail_on_regression = cli.add_flag(
      "fail-on-regression", '\0',
      "exit 3 when an answer changed or a timing regressed");
  if (!cli.parse(argc, argv)) return parse_exit(cli);
  if (in.empty()) {
    std::fputs("nfvpr report: --in is required\n", stderr);
    return 2;
  }
  const nfv::obs::JsonValue current =
      nfv::obs::load_run_report(read_file(in));
  if (baseline.empty()) {
    std::fputs(nfv::obs::pretty_print_report(current).c_str(), stdout);
    return 0;
  }
  const nfv::obs::JsonValue base =
      nfv::obs::load_run_report(read_file(baseline));
  const auto diff = nfv::obs::diff_reports(base, current, threshold);
  std::fputs(nfv::obs::render_diff(diff).c_str(), stdout);
  if (fail_on_regression && diff.failed()) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string subcommand = argv[1];
  // Asking for help is not a usage error.
  if (subcommand == "--help" || subcommand == "-h" || subcommand == "help") {
    (void)usage();
    return 0;
  }
  // Shift argv so each subcommand parser sees its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (subcommand == "generate-topology") {
      return cmd_generate_topology(sub_argc, sub_argv);
    }
    if (subcommand == "generate-workload") {
      return cmd_generate_workload(sub_argc, sub_argv);
    }
    if (subcommand == "place") return cmd_place(sub_argc, sub_argv);
    if (subcommand == "schedule") return cmd_schedule(sub_argc, sub_argv);
    if (subcommand == "pipeline") return cmd_pipeline(sub_argc, sub_argv);
    if (subcommand == "tail") return cmd_tail(sub_argc, sub_argv);
    if (subcommand == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (subcommand == "generate-trace") {
      return cmd_generate_trace(sub_argc, sub_argv);
    }
    if (subcommand == "transcode-trace") {
      return cmd_transcode_trace(sub_argc, sub_argv);
    }
    if (subcommand == "serve") return cmd_serve(sub_argc, sub_argv);
    if (subcommand == "analyze-timeline") {
      return cmd_analyze_timeline(sub_argc, sub_argv);
    }
    if (subcommand == "report") return cmd_report(sub_argc, sub_argv);
  } catch (const nfv::InfeasibleError& e) {
    // Well-formed input that no algorithm can satisfy (e.g. a VNF larger
    // than every node): distinct from misuse and from internal failures.
    std::fprintf(stderr, "nfvpr %s: infeasible: %s\n", subcommand.c_str(),
                 e.what());
    return 4;
  } catch (const std::invalid_argument& e) {
    // Failed precondition (NFV_REQUIRE): the input itself is malformed.
    std::fprintf(stderr, "nfvpr %s: invalid argument: %s\n",
                 subcommand.c_str(), e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfvpr %s: %s\n", subcommand.c_str(), e.what());
    return 1;
  }
  return usage();
}
