// Determinism properties of the solver portfolio (DESIGN.md §17): the
// serialized run report is byte-identical for any thread count, every
// --solver value and with or without a work budget, and a single-backend
// race is the identity — bitwise the same result as running that backend
// through the JointOptimizer directly.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "nfv/core/joint_optimizer.h"
#include "nfv/core/report_builder.h"
#include "nfv/core/solver.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/report.h"
#include "nfv/topology/builders.h"

namespace nfv::core {
namespace {

SystemModel make_model(std::uint64_t seed) {
  Rng rng(seed * 677 + 29);
  SystemModel model;
  model.topology = topo::make_star(
      6, topo::CapacitySpec{500.0, 500.0}, topo::LinkSpec{1e-4}, rng);
  for (std::uint32_t f = 0; f < 6; ++f) {
    workload::Vnf v;
    v.id = VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance =
        50.0 + static_cast<double>((seed * 13 + f * 23) % 70);
    v.instance_count = 2;
    v.service_rate = 60.0;
    model.workload.vnfs.push_back(std::move(v));
  }
  for (std::uint32_t r = 0; r < 18; ++r) {
    workload::Request req;
    req.id = RequestId{r};
    const std::uint32_t start =
        static_cast<std::uint32_t>((r * 5 + seed) % 6);
    for (std::uint32_t k = 0; k < 2 + r % 2; ++k) {
      req.chain.push_back(VnfId{(start + k) % 6});
    }
    req.arrival_rate = 1.0 + static_cast<double>((r * 3 + seed) % 4);
    req.delivery_prob = 0.95;
    model.workload.requests.push_back(std::move(req));
  }
  return model;
}

SolverConfig budgeted(const std::string& solver, std::uint64_t budget = 48) {
  SolverConfig cfg;
  cfg.solver = solver;
  cfg.work_budget = budget;
  return cfg;
}

/// Runs the race at `threads` and serializes the full run report — the
/// byte stream the CLI's --report-out writes.
std::string race_report(const SystemModel& model, const SolverConfig& scfg,
                        std::uint64_t seed, std::uint32_t threads) {
  JointConfig cfg;
  cfg.exec.threads = threads;
  const SolverOutcome outcome = PortfolioDriver(cfg, scfg).run(model, seed);

  ReportInputs inputs;
  inputs.command = "pipeline";
  inputs.seed = seed;
  inputs.placement_algorithm =
      PortfolioDriver::backend_algorithm(outcome.winner);
  inputs.scheduling_algorithm = cfg.scheduling_algorithm;
  inputs.model = &model;
  inputs.result = &outcome.result;
  inputs.solver = &outcome;
  inputs.solver_id = scfg.solver;
  const obs::RunReport report = build_run_report(inputs);
  std::ostringstream os;
  obs::write_run_report(report, os);
  return os.str();
}

TEST(PortfolioProperty, ReportsByteIdenticalForAnyThreadCount) {
  const std::vector<std::string> solvers = {"bfdsu", "pso", "lp",
                                            "portfolio"};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SystemModel model = make_model(seed);
    for (const std::string& solver : solvers) {
      // 0 = each backend's default effort.
      for (const std::uint64_t budget : {0u, 48u}) {
        const SolverConfig scfg = budgeted(solver, budget);
        const std::string serial = race_report(model, scfg, seed, 1);
        EXPECT_FALSE(serial.empty());
        for (const std::uint32_t threads : {2u, 8u}) {
          EXPECT_EQ(serial, race_report(model, scfg, seed, threads))
              << "solver " << solver << " budget " << budget << " seed "
              << seed << " threads " << threads;
        }
      }
    }
  }
}

TEST(PortfolioProperty, SingleBackendRaceIsTheIdentity) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SystemModel model = make_model(seed);
    for (const char* backend_id : {"bfdsu", "pso", "lp"}) {
      const std::string backend(backend_id);
      // Default effort (no budget): the raced backend must be configured
      // exactly like the registry's default-constructed algorithm.
      SolverConfig scfg;
      scfg.solver = backend;
      JointConfig direct_cfg;
      direct_cfg.placement_algorithm =
          PortfolioDriver::backend_algorithm(backend);
      const JointResult direct =
          JointOptimizer(direct_cfg).run(model, seed);
      const SolverOutcome raced =
          PortfolioDriver(JointConfig{}, scfg).run(model, seed);
      EXPECT_EQ(raced.winner, backend);
      ASSERT_EQ(raced.backends.size(), 1u);
      EXPECT_EQ(raced.result.feasible, direct.feasible) << backend;
      EXPECT_EQ(raced.result.placement.assignment,
                direct.placement.assignment)
          << backend << " seed " << seed;
      EXPECT_EQ(raced.result.placement.iterations,
                direct.placement.iterations)
          << backend;
      // Bitwise, not approximate: identical streams, identical arithmetic.
      EXPECT_EQ(raced.result.total_latency, direct.total_latency)
          << backend << " seed " << seed;
      EXPECT_EQ(raced.result.avg_response, direct.avg_response) << backend;
      EXPECT_EQ(raced.result.job_rejection_rate, direct.job_rejection_rate)
          << backend;
    }
  }
}

TEST(PortfolioProperty, WinnerTieBreakIsAlphabeticalOnExactTies) {
  // A degenerate instance every backend solves identically (one node can
  // hold everything): objectives tie exactly, so "bfdsu" must win by id.
  Rng rng(99);
  SystemModel model;
  model.topology = topo::make_star(
      3, topo::CapacitySpec{5000.0, 5000.0}, topo::LinkSpec{1e-4}, rng);
  for (std::uint32_t f = 0; f < 3; ++f) {
    workload::Vnf v;
    v.id = VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance = 50.0;
    v.instance_count = 2;
    v.service_rate = 60.0;
    model.workload.vnfs.push_back(std::move(v));
  }
  for (std::uint32_t r = 0; r < 4; ++r) {
    workload::Request req;
    req.id = RequestId{r};
    req.chain = {VnfId{r % 3}, VnfId{(r + 1) % 3}};
    req.arrival_rate = 2.0;
    req.delivery_prob = 0.95;
    model.workload.requests.push_back(std::move(req));
  }
  const SolverOutcome outcome =
      PortfolioDriver(JointConfig{}, budgeted("portfolio"))
          .run(model, 5);
  ASSERT_TRUE(outcome.result.feasible);
  bool all_tied = true;
  for (const BackendRun& b : outcome.backends) {
    all_tied = all_tied && b.feasible &&
               b.objective == outcome.backends.front().objective;
  }
  if (all_tied) {
    EXPECT_EQ(outcome.winner, "bfdsu");
  } else {
    // Backends diverged after all; the winner must still be the argmin.
    for (const BackendRun& b : outcome.backends) {
      if (!b.feasible) continue;
      EXPECT_LE(outcome.result.total_latency, b.objective);
    }
  }
}

TEST(PortfolioProperty, JointCountersCountOncePerRace) {
  // A three-backend race solves one instance: core.joint.* counts it once
  // (its winner), core.solver.* counts the race and each backend.
  const SystemModel model = make_model(3);
  obs::MetricsRegistry reg;
  SolverOutcome outcome;
  {
    const obs::ScopedMetrics scope(reg);
    outcome = PortfolioDriver(JointConfig{}, budgeted("portfolio"))
                  .run(model, 3);
  }
  ASSERT_TRUE(outcome.result.feasible);
  ASSERT_EQ(outcome.backends.size(), 3u);
  std::uint64_t admitted = 0;
  for (const RequestOutcome& r : outcome.result.requests) {
    admitted += r.admitted ? 1 : 0;
  }
  EXPECT_EQ(reg.counter("core.solver.races").value(), 1u);
  EXPECT_EQ(reg.counter("core.solver.backend_runs").value(), 3u);
  EXPECT_EQ(reg.counter("core.joint.runs").value(), 1u);
  EXPECT_EQ(reg.counter("core.joint.admitted").value(), admitted);
  EXPECT_EQ(reg.counter("core.joint.rejected").value(),
            model.workload.requests.size() - admitted);
}

}  // namespace
}  // namespace nfv::core
