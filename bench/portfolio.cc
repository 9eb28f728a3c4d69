// Solver-portfolio quality-vs-budget frontier (DESIGN.md §17, not a
// paper figure): one deterministic fixture instance raced through every
// --solver backend at increasing work budgets.
//
//   bench_portfolio --reps 5 --threads 4 --json portfolio.json
//
// Rows pair wall-clock columns (machine-noisy) with the deterministic
// race columns, bit-identical for any thread count:
//
//   wall_us     fastest of --reps races at --threads;
//   wall_j1_us  fastest of --reps races on one thread, interleaved with
//               the threaded ones so both see the same host stretches;
//   speedup     wall_j1_us / wall_us — what the threads buy;
//   budget      shared work budget W (--work-budget);
//   work        placement iterations charged by the row's winner;
//   rejected    rejected requests in the winning solution;
//   latency_us  Eq. 16 objective of the winning solution, in µs.
//
// With --threads above 1, the rows start after bench::warm_up_cores, which
// brings a host that has sat idle up to its full core count.
//
// The binary itself enforces the portfolio contracts (exit 1): at every
// budget the portfolio row's objective is <= every single backend's
// (racing never costs quality), the one-thread races reproduce every
// deterministic column bit-for-bit, and with --threads above 1 no
// portfolio row is slower than on one thread.  JSON lands in the
// "nfvpr.bench/1" schema for baseline diffing against
// bench/baselines/portfolio.json: wall at 400% on shared runners,
// deterministic columns at 1%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/rng.h"
#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/core/solver.h"
#include "nfv/topology/builders.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic fixture: a 10-node star with 8 VNFs and 40 chained
/// requests, enough slack that every backend places it but tight enough
/// that placement spread shows in the link-latency term of Eq. 16.
nfv::core::SystemModel make_fixture(std::uint64_t seed) {
  nfv::Rng rng(seed * 977 + 13);
  nfv::core::SystemModel model;
  model.topology = nfv::topo::make_star(
      10, nfv::topo::CapacitySpec{500.0, 500.0}, nfv::topo::LinkSpec{1e-4},
      rng);
  constexpr std::uint32_t kVnfs = 8;
  for (std::uint32_t f = 0; f < kVnfs; ++f) {
    nfv::workload::Vnf v;
    v.id = nfv::VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance =
        40.0 + static_cast<double>((seed * 31 + f * 17) % 80);
    v.instance_count = 2;
    v.service_rate = 60.0;
    model.workload.vnfs.push_back(std::move(v));
  }
  for (std::uint32_t r = 0; r < 40; ++r) {
    nfv::workload::Request req;
    req.id = nfv::RequestId{r};
    // r walks every residue so each VNF heads at least one chain.
    const auto start = static_cast<std::uint32_t>((r + seed) % kVnfs);
    const std::uint32_t len = 2 + (r + seed) % 2;
    for (std::uint32_t k = 0; k < len; ++k) {
      req.chain.push_back(nfv::VnfId{(start + k) % kVnfs});
    }
    req.arrival_rate = 1.0 + static_cast<double>((r * 5 + seed) % 3);
    req.delivery_prob = 0.95;
    model.workload.requests.push_back(std::move(req));
  }
  return model;
}

nfv::core::JointConfig base_config(std::uint32_t threads) {
  nfv::core::JointConfig cfg;
  cfg.scheduling_algorithm = "DP2";
  cfg.link_latency = 0.005;
  cfg.exec.threads = threads;
  return cfg;
}

nfv::core::SolverConfig budgeted(const std::string& solver,
                                 std::uint64_t budget) {
  nfv::core::SolverConfig cfg;
  cfg.solver = solver;
  cfg.work_budget = budget;
  return cfg;
}

struct PairTimes {
  double threaded_us = std::numeric_limits<double>::infinity();
  double serial_us = std::numeric_limits<double>::infinity();
};

/// Fastest of `reps` races of `threaded` and of `serial`, in µs.  The
/// reps alternate (threaded, serial, threaded, ...) so both minima see
/// the same stretches of a host whose speed drifts.  The last outcome of
/// each lands in `outcome` / `serial_outcome`.
PairTimes fastest_race_pair_us(const nfv::core::PortfolioDriver& threaded,
                               const nfv::core::PortfolioDriver& serial,
                               const nfv::core::SystemModel& model,
                               std::uint64_t seed, long long reps,
                               nfv::core::SolverOutcome& outcome,
                               nfv::core::SolverOutcome& serial_outcome) {
  const auto race_us = [&](const nfv::core::PortfolioDriver& driver,
                           nfv::core::SolverOutcome& out) {
    const auto start = Clock::now();
    out = driver.run(model, seed);
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  PairTimes best;
  for (long long rep = 0; rep < reps; ++rep) {
    best.threaded_us = std::min(best.threaded_us, race_us(threaded, outcome));
    best.serial_us = std::min(best.serial_us, race_us(serial, serial_outcome));
  }
  return best;
}

std::uint64_t rejected_count(const nfv::core::JointResult& r) {
  std::uint64_t rejected = 0;
  for (const auto& o : r.requests) {
    if (!o.admitted) ++rejected;
  }
  return rejected;
}

}  // namespace

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_portfolio",
                     "solver portfolio quality-vs-budget frontier "
                     "(nfvpr.bench/1 JSON)");
  const auto& reps = cli.add_int("reps", 'r', "timed repetitions per row", 5);
  const auto& threads =
      cli.add_int("threads", 'j', "worker threads for the race", 4);
  const auto& seed = cli.add_int("seed", 's', "fixture seed", 42);
  const auto& json = cli.add_string("json", '\0', "write JSON table here", "");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (reps < 1 || threads < 1) {
    std::fputs("bench_portfolio: --reps and --threads must be >= 1\n", stderr);
    return 2;
  }

  nfv::bench::print_banner(
      "Solver portfolio — quality vs. deterministic work budget",
      "One fixture instance raced through every --solver backend at\n"
      "increasing --work-budget (DESIGN.md §17).  Every column but the\n"
      "wall clocks is bit-identical for any thread count; the binary\n"
      "itself fails (exit 1) if the portfolio row ever loses to a single\n"
      "backend, if a single-threaded rerun diverges from the threaded\n"
      "race, or if the threaded portfolio race is slower than the\n"
      "single-threaded one.");

  const auto model = make_fixture(static_cast<std::uint64_t>(seed));
  std::printf("instance: %zu nodes, %zu VNFs, %zu requests\n\n",
              model.topology.compute_count(), model.workload.vnfs.size(),
              model.workload.requests.size());

  const std::uint64_t budgets[] = {4, 16, 64};
  const std::vector<std::string> solvers = {"bfdsu", "pso", "lp", "portfolio"};

  nfv::bench::warm_up_cores(static_cast<std::uint32_t>(threads));

  nfv::Table table({"case", "budget", "threads", "reps", "wall_us",
                    "wall_j1_us", "speedup", "work", "rejected",
                    "latency_us"});
  table.set_precision(3);
  for (const std::uint64_t budget : budgets) {
    double portfolio_latency = 0.0;
    bool portfolio_feasible = false;
    std::vector<double> single_latencies;
    for (const std::string& solver : solvers) {
      const nfv::core::PortfolioDriver driver(
          base_config(static_cast<std::uint32_t>(threads)),
          budgeted(solver, budget));
      nfv::core::SolverOutcome outcome;
      nfv::core::SolverOutcome serial;
      const PairTimes times = fastest_race_pair_us(
          driver,
          nfv::core::PortfolioDriver(base_config(1), budgeted(solver, budget)),
          model, static_cast<std::uint64_t>(seed), reps, outcome, serial);
      const double us = times.threaded_us;
      const double us_j1 = times.serial_us;
      if (!outcome.result.feasible) {
        std::fprintf(stderr, "bench_portfolio: %s infeasible at budget %llu\n",
                     solver.c_str(),
                     static_cast<unsigned long long>(budget));
        return 1;
      }

      // Contract: the deterministic race is thread-count free — the
      // single-threaded reruns must reproduce every deterministic column.
      if (serial.winner != outcome.winner ||
          serial.result.total_latency != outcome.result.total_latency ||
          serial.result.placement.assignment !=
              outcome.result.placement.assignment) {
        std::fprintf(stderr,
                     "bench_portfolio: %s race diverges across thread "
                     "counts at budget %llu\n",
                     solver.c_str(), static_cast<unsigned long long>(budget));
        return 1;
      }

      if (solver == "portfolio") {
        portfolio_latency = outcome.result.total_latency;
        portfolio_feasible = true;
        // Contract: threads must pay for the race (ROADMAP O16).
        if (threads > 1 && us > us_j1) {
          std::fprintf(stderr,
                       "bench_portfolio: portfolio at %lld threads (%.0f us) "
                       "is slower than on one thread (%.0f us) at budget "
                       "%llu\n",
                       static_cast<long long>(threads), us, us_j1,
                       static_cast<unsigned long long>(budget));
          return 1;
        }
      } else {
        single_latencies.push_back(outcome.result.total_latency);
      }
      std::uint64_t winner_work = 0;
      for (const auto& b : outcome.backends) {
        if (b.id == outcome.winner) winner_work = b.work;
      }
      table.add_row(
          {solver, static_cast<long long>(budget),
           static_cast<long long>(threads), static_cast<long long>(reps), us,
           us_j1, us_j1 / us, static_cast<long long>(winner_work),
           static_cast<long long>(rejected_count(outcome.result)),
           outcome.result.total_latency * 1e6});
    }
    // Contract: racing never costs quality — the portfolio row matches
    // or beats every single backend at the same budget.
    if (!portfolio_feasible) {
      std::fputs("bench_portfolio: portfolio row missing\n", stderr);
      return 1;
    }
    for (const double single : single_latencies) {
      if (portfolio_latency > single) {
        std::fprintf(stderr,
                     "bench_portfolio: portfolio (%.9g) lost to a single "
                     "backend (%.9g) at budget %llu\n",
                     portfolio_latency, single,
                     static_cast<unsigned long long>(budget));
        return 1;
      }
    }
  }
  std::fputs(table.markdown().c_str(), stdout);
  nfv::bench::write_table_json(table, "portfolio", json);
  return 0;
}
