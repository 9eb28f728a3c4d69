// Differential/oracle harness for the solver portfolio (DESIGN.md §17):
// on randomized small instances every backend must produce a feasible,
// fully admitted solution within a bounded factor of the exact oracle
// (Exact placement + DP2 scheduling), and the portfolio must match the
// best single backend bit-for-bit — racing never costs quality.  An
// executable spec pins the race itself: sharing one phase 2 among the
// backends must give, field for field, what a full pipeline per backend
// followed by the argmin gives; another pins stage 3: phase_terms() once
// plus evaluate() per placement must give what the one-pass evaluation
// of Eq. 16 gave.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nfv/core/joint_optimizer.h"
#include "nfv/core/solver.h"
#include "nfv/placement/lp_round.h"
#include "nfv/placement/pso.h"
#include "nfv/topology/builders.h"

namespace nfv::core {
namespace {

/// Documented worst-case objective ratio vs. the exact oracle on these
/// instances.  Scheduling is identical (DP2 everywhere), so the gap is
/// purely placement-driven link latency; 2.0 is deliberately loose.
constexpr double kOracleGapFactor = 2.0;
constexpr std::uint64_t kSeeds = 30;
constexpr std::uint64_t kWorkBudget = 64;

/// Small randomized instance: <= 8 nodes, <= 12 requests, comfortable
/// capacity slack (every backend must place it) and light per-instance
/// load (every request must admit).
SystemModel make_small_model(std::uint64_t seed) {
  Rng rng(seed * 977 + 13);
  const std::size_t nodes = 4 + seed % 5;  // 4..8
  const auto vnf_count = static_cast<std::uint32_t>(4 + seed % 3);      // 4..6
  const auto request_count = static_cast<std::uint32_t>(8 + seed % 5);  // 8..12
  SystemModel model;
  model.topology = topo::make_star(
      nodes, topo::CapacitySpec{500.0, 500.0}, topo::LinkSpec{1e-4}, rng);
  for (std::uint32_t f = 0; f < vnf_count; ++f) {
    workload::Vnf v;
    v.id = VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance =
        40.0 + static_cast<double>((seed * 31 + f * 17) % 80);  // 40..119
    v.instance_count = 2;
    v.service_rate = 50.0;
    model.workload.vnfs.push_back(std::move(v));
  }
  for (std::uint32_t r = 0; r < request_count; ++r) {
    workload::Request req;
    req.id = RequestId{r};
    // start walks r itself so every VNF heads some chain (each VNF needs
    // at least one member request for its scheduling problem).
    const std::uint32_t start =
        static_cast<std::uint32_t>((r + seed) % vnf_count);
    const std::uint32_t len = 2 + (r + seed) % 2;  // 2..3 distinct VNFs
    for (std::uint32_t k = 0; k < len; ++k) {
      req.chain.push_back(VnfId{(start + k) % vnf_count});
    }
    req.arrival_rate = 1.0 + static_cast<double>((r * 5 + seed) % 3);
    req.delivery_prob = 0.95;
    model.workload.requests.push_back(std::move(req));
  }
  return model;
}

/// Every race below schedules with the exact DP2 oracle and a link
/// latency large enough that placement spread shows in Eq. 16.
JointConfig base_config() {
  JointConfig cfg;
  cfg.scheduling_algorithm = "DP2";
  cfg.link_latency = 0.005;
  return cfg;
}

SolverConfig budgeted(const std::string& solver) {
  SolverConfig cfg;
  cfg.solver = solver;
  cfg.work_budget = kWorkBudget;
  return cfg;
}

std::uint64_t rejected_count(const JointResult& r) {
  std::uint64_t rejected = 0;
  for (const auto& o : r.requests) {
    if (!o.admitted) ++rejected;
  }
  return rejected;
}

TEST(SolverDifferential, EveryBackendFeasibleAndWithinOracleGap) {
  const std::vector<std::string> backends = {"bfdsu", "lp", "pso"};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SystemModel model = make_small_model(seed);
    JointConfig oracle_cfg = base_config();
    oracle_cfg.placement_algorithm = "Exact";
    const JointResult oracle = JointOptimizer(oracle_cfg).run(model, seed);
    ASSERT_TRUE(oracle.feasible) << "seed " << seed;
    ASSERT_EQ(rejected_count(oracle), 0u) << "seed " << seed;
    ASSERT_GT(oracle.total_latency, 0.0) << "seed " << seed;

    for (const std::string& backend : backends) {
      const PortfolioDriver driver(base_config(), budgeted(backend));
      const SolverOutcome outcome = driver.run(model, seed);
      EXPECT_EQ(outcome.winner, backend);
      ASSERT_TRUE(outcome.result.feasible)
          << backend << " infeasible on seed " << seed;
      EXPECT_EQ(rejected_count(outcome.result), 0u)
          << backend << " rejected requests on seed " << seed;
      EXPECT_LE(outcome.result.total_latency,
                kOracleGapFactor * oracle.total_latency)
          << backend << " beyond the oracle gap on seed " << seed;
    }
  }
}

TEST(SolverDifferential, PortfolioMatchesBestSingleBackendExactly) {
  const std::vector<std::string> backends = {"bfdsu", "lp", "pso"};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SystemModel model = make_small_model(seed);

    // The same total order the driver uses: feasible desc, rejected asc,
    // objective asc, backend id asc (the vector is already id-sorted).
    std::string best_id;
    const JointResult* best = nullptr;
    std::vector<SolverOutcome> singles;
    singles.reserve(backends.size());
    for (const std::string& backend : backends) {
      singles.push_back(
          PortfolioDriver(base_config(), budgeted(backend)).run(model, seed));
      const JointResult& r = singles.back().result;
      const bool better =
          best == nullptr ? true
          : r.feasible != best->feasible ? r.feasible
          : rejected_count(r) != rejected_count(*best)
              ? rejected_count(r) < rejected_count(*best)
              : r.total_latency < best->total_latency;
      if (better) {
        best = &r;
        best_id = backend;
      }
    }
    ASSERT_NE(best, nullptr);

    const SolverOutcome portfolio =
        PortfolioDriver(base_config(), budgeted("portfolio")).run(model, seed);
    ASSERT_EQ(portfolio.backends.size(), backends.size());
    EXPECT_EQ(portfolio.winner, best_id) << "seed " << seed;
    // Exact equality, not tolerance: the portfolio returns the winning
    // backend's result verbatim, so matching the best single backend is a
    // bitwise property.
    EXPECT_EQ(portfolio.result.total_latency, best->total_latency)
        << "seed " << seed;
    EXPECT_EQ(portfolio.result.feasible, best->feasible);
    EXPECT_EQ(portfolio.result.placement.assignment,
              best->placement.assignment)
        << "seed " << seed;
    // And it never loses to ANY single backend.
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (!singles[i].result.feasible) continue;
      EXPECT_LE(portfolio.result.total_latency,
                singles[i].result.total_latency)
          << "portfolio lost to " << backends[i] << " on seed " << seed;
    }
  }
}

TEST(SolverDifferential, BackendWorkRespectsDeterministicBudget) {
  const SystemModel model = make_small_model(7);
  const SolverOutcome outcome =
      PortfolioDriver(base_config(), budgeted("portfolio")).run(model, 7);
  ASSERT_EQ(outcome.backends.size(), 3u);
  EXPECT_EQ(outcome.budget_work, kWorkBudget);
  for (const BackendRun& b : outcome.backends) {
    EXPECT_GE(b.work, 1u) << b.id;
    // The budget maps to backend-local effort; no backend may exceed it
    // by more than one PSO sweep's rounding.
    EXPECT_LE(b.work, kWorkBudget + 16) << b.id;
  }
}

// --- Executable spec of the race --------------------------------------

/// Two or three disjoint chain families of three VNFs each (by seed) on
/// nodes of `capacity`; at tight capacity some backends cannot pack it.
SystemModel make_component_model(std::uint64_t seed, double capacity) {
  Rng rng(seed * 7919 + 3);
  const std::size_t nodes = 4 + seed % 3;
  const auto components = static_cast<std::uint32_t>(2 + seed % 2);
  const std::uint32_t vnf_count = 3 * components;
  SystemModel model;
  model.topology = topo::make_star(nodes, topo::CapacitySpec{capacity, capacity},
                                   topo::LinkSpec{1e-4}, rng);
  for (std::uint32_t f = 0; f < vnf_count; ++f) {
    workload::Vnf v;
    v.id = VnfId{f};
    v.name = "vnf" + std::to_string(f);
    v.catalog_index = f;
    v.demand_per_instance = 40.0 + static_cast<double>(rng.below(80));
    v.instance_count = 2;
    v.service_rate = 50.0;
    model.workload.vnfs.push_back(std::move(v));
  }
  for (std::uint32_t r = 0; r < 4 * vnf_count; ++r) {
    workload::Request req;
    req.id = RequestId{r};
    const std::uint32_t c = r % components;
    const auto start = static_cast<std::uint32_t>((r / components + seed) % 3);
    const std::uint32_t len = 2 + (r + seed) % 2;
    for (std::uint32_t k = 0; k < len; ++k) {
      req.chain.push_back(VnfId{3 * c + (start + k) % 3});
    }
    req.arrival_rate = 1.0 + static_cast<double>((r * 5 + seed) % 3);
    req.delivery_prob = 0.95;
    model.workload.requests.push_back(std::move(req));
  }
  return model;
}

/// Backend `id` under the documented work-budget mapping
/// (solver.h): PSO sweeps = W / swarm, LP steps = W, BFDSU passes =
/// min(W, 60) with the stall limit capped by the passes.
std::unique_ptr<placement::PlacementAlgorithm> budgeted_backend(
    const std::string& id, std::uint64_t work) {
  if (id == "pso") {
    placement::PsoPlacement::Options o;
    o.iterations = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, work / o.swarm));
    return std::make_unique<placement::PsoPlacement>(o);
  }
  if (id == "lp") {
    placement::LpRoundPlacement::Options o;
    o.iterations = static_cast<std::uint32_t>(work);
    return std::make_unique<placement::LpRoundPlacement>(o);
  }
  placement::BfdsuPlacement::Options o;
  o.max_passes = static_cast<std::uint32_t>(std::min<std::uint64_t>(work, 60));
  o.stall_limit = std::min(o.stall_limit, o.max_passes);
  return std::make_unique<placement::BfdsuPlacement>(o);
}

/// The race's specification: for each backend a whole pipeline — its own
/// placement, its own phase 2, its own Eq. 16 — then the argmin under the
/// total order feasible,
/// rejected, objective, backend id.
SolverOutcome reference_race(const SystemModel& model, const JointConfig& base,
                             std::uint64_t work, std::uint64_t seed) {
  const JointOptimizer joint(base);
  SolverOutcome out;
  out.budget_work = work;
  std::vector<JointResult> results;
  std::size_t best = 0;
  for (const std::string id : {"bfdsu", "lp", "pso"}) {
    const PreparedModel in = joint.prepare(model);
    JointResult r = joint.place(in, *budgeted_backend(id, work), seed);
    if (r.placement.feasible) {
      SchedulePass pass = joint.schedule(in, seed);
      for (std::size_t i = 0; i < pass.items(); ++i) pass.run_item(i);
      ScheduleResult phase = std::move(pass).finish();
      joint.evaluate(model, phase_terms(model, phase), r);
      r.contexts = std::move(phase.contexts);
      r.schedules = std::move(phase.schedules);
      r.admissions = std::move(phase.admissions);
    }
    BackendRun entry;
    entry.id = id;
    entry.feasible = r.feasible;
    entry.rejected = rejected_count(r);
    entry.objective = r.total_latency;
    entry.work = r.placement.iterations;
    out.backends.push_back(entry);
    results.push_back(std::move(r));
    const BackendRun& a = out.backends.back();
    const BackendRun& b = out.backends[best];
    const bool better = a.feasible != b.feasible ? a.feasible
                        : a.rejected != b.rejected ? a.rejected < b.rejected
                                                   : a.objective < b.objective;
    if (better) best = results.size() - 1;
  }
  out.winner = out.backends[best].id;
  out.result = std::move(results[best]);
  return out;
}

void expect_same_outcome(const SolverOutcome& got, const SolverOutcome& want,
                         const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.winner, want.winner);
  EXPECT_EQ(got.budget_work, want.budget_work);
  ASSERT_EQ(got.backends.size(), want.backends.size());
  for (std::size_t i = 0; i < want.backends.size(); ++i) {
    EXPECT_EQ(got.backends[i].id, want.backends[i].id);
    EXPECT_EQ(got.backends[i].feasible, want.backends[i].feasible);
    EXPECT_EQ(got.backends[i].rejected, want.backends[i].rejected);
    EXPECT_EQ(got.backends[i].objective, want.backends[i].objective);
    EXPECT_EQ(got.backends[i].work, want.backends[i].work);
  }
  const JointResult& g = got.result;
  const JointResult& w = want.result;
  EXPECT_EQ(g.feasible, w.feasible);
  EXPECT_EQ(g.placement.assignment, w.placement.assignment);
  EXPECT_EQ(g.placement.feasible, w.placement.feasible);
  EXPECT_EQ(g.placement.iterations, w.placement.iterations);
  EXPECT_EQ(g.placement_metrics.nodes_in_service,
            w.placement_metrics.nodes_in_service);
  EXPECT_EQ(g.placement_metrics.resource_occupation,
            w.placement_metrics.resource_occupation);
  EXPECT_EQ(g.placement_metrics.node_load, w.placement_metrics.node_load);
  ASSERT_EQ(g.contexts.size(), w.contexts.size());
  for (std::size_t f = 0; f < w.contexts.size(); ++f) {
    EXPECT_EQ(g.contexts[f].members, w.contexts[f].members);
    EXPECT_EQ(g.contexts[f].problem.arrival_rates,
              w.contexts[f].problem.arrival_rates);
  }
  ASSERT_EQ(g.schedules.size(), w.schedules.size());
  for (std::size_t f = 0; f < w.schedules.size(); ++f) {
    EXPECT_EQ(g.schedules[f].instance_of, w.schedules[f].instance_of);
    EXPECT_EQ(g.schedules[f].work, w.schedules[f].work);
  }
  ASSERT_EQ(g.admissions.size(), w.admissions.size());
  for (std::size_t f = 0; f < w.admissions.size(); ++f) {
    EXPECT_EQ(g.admissions[f].admitted, w.admissions[f].admitted);
    EXPECT_EQ(g.admissions[f].admitted_metrics.instance_load,
              w.admissions[f].admitted_metrics.instance_load);
  }
  ASSERT_EQ(g.requests.size(), w.requests.size());
  for (std::size_t r = 0; r < w.requests.size(); ++r) {
    EXPECT_EQ(g.requests[r].admitted, w.requests[r].admitted);
    EXPECT_EQ(g.requests[r].response_latency, w.requests[r].response_latency);
    EXPECT_EQ(g.requests[r].link_latency, w.requests[r].link_latency);
    EXPECT_EQ(g.requests[r].nodes_traversed, w.requests[r].nodes_traversed);
  }
  EXPECT_EQ(g.total_latency, w.total_latency);
  EXPECT_EQ(g.avg_total_latency, w.avg_total_latency);
  EXPECT_EQ(g.avg_response, w.avg_response);
  EXPECT_EQ(g.job_rejection_rate, w.job_rejection_rate);
}

/// Races `model` at threads 1, 2 and 4 and compares each outcome with the
/// reference race.  Returns the reference for coverage checks.
SolverOutcome expect_race_matches_reference(const SystemModel& model,
                                            JointConfig base,
                                            std::uint64_t work,
                                            std::uint64_t seed,
                                            const std::string& label) {
  const SolverOutcome want = reference_race(model, base, work, seed);
  SolverConfig scfg = budgeted("portfolio");
  scfg.work_budget = work;
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    base.exec.threads = threads;
    const SolverOutcome got = PortfolioDriver(base, scfg).run(model, seed);
    expect_same_outcome(got, want,
                        label + " threads " + std::to_string(threads));
  }
  return want;
}

/// The spec compares races, not schedulers: RCKK keeps it fast.
JointConfig spec_config() {
  JointConfig cfg = base_config();
  cfg.scheduling_algorithm = "RCKK";
  return cfg;
}

TEST(SolverDifferential, RaceEqualsAPipelinePerBackendOnSeededInstances) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string at = "seed " + std::to_string(seed);
    for (const SystemModel& model :
         {make_small_model(seed), make_component_model(seed, 500.0)}) {
      expect_race_matches_reference(model, spec_config(), kWorkBudget, seed,
                                    at);
    }
  }
}

TEST(SolverDifferential, RaceEqualsAPipelinePerBackendWhenOneBackendFails) {
  // One BFDSU pass cannot pack this instance; LP and PSO can.
  const SystemModel model = make_component_model(123, 350.0);
  const SolverOutcome want =
      expect_race_matches_reference(model, spec_config(), 1, 123, "monolithic");
  ASSERT_EQ(want.backends.size(), 3u);
  EXPECT_FALSE(want.backends[0].feasible);
  EXPECT_TRUE(want.backends[1].feasible);
  EXPECT_TRUE(want.backends[2].feasible);
}

// --- Executable spec of stage 3 ---------------------------------------

/// The one-pass Eq. 16 evaluation that phase_terms() + evaluate() split:
/// chain positions, admission, Σ W(f, k), distinct nodes and totals per
/// request in a single sweep, then the mean W over all instances.
struct SpecChainPositionIndex {
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> position;

  [[nodiscard]] std::uint32_t at(std::size_t request_index,
                                 std::size_t chain_offset) const {
    return position[offsets[request_index] + chain_offset];
  }
};

SpecChainPositionIndex spec_chain_position_index(
    const workload::Workload& workload,
    const std::vector<VnfSchedulingContext>& contexts) {
  SpecChainPositionIndex index;
  index.offsets.resize(workload.requests.size() + 1, 0);
  for (std::size_t r = 0; r < workload.requests.size(); ++r) {
    index.offsets[r + 1] = index.offsets[r] + workload.requests[r].chain.size();
  }
  index.position.resize(index.offsets.back());
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> cursor(contexts.size(), 0);
  std::vector<std::uint32_t> seen_in(contexts.size(), kNoRequest);
  std::vector<std::uint32_t> first_pos(contexts.size(), 0);
  for (std::uint32_t r_idx = 0; r_idx < workload.requests.size(); ++r_idx) {
    const auto& chain = workload.requests[r_idx].chain;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const std::size_t f = chain[j].index();
      if (seen_in[f] != r_idx) {
        seen_in[f] = r_idx;
        first_pos[f] = cursor[f]++;
      }
      index.position[index.offsets[r_idx] + j] = first_pos[f];
    }
  }
  return index;
}

void spec_evaluate(const SystemModel& model, const ScheduleResult& phase,
                   double link_l, JointResult& result) {
  const SpecChainPositionIndex positions =
      spec_chain_position_index(model.workload, phase.contexts);

  result.requests.resize(model.workload.requests.size());
  std::size_t admitted_count = 0;
  double total = 0.0;
  std::vector<std::uint32_t> nodes_scratch;
  for (const auto& r : model.workload.requests) {
    RequestOutcome& out = result.requests[r.id.index()];
    out.admitted = true;
    nodes_scratch.clear();
    double response = 0.0;
    for (std::size_t j = 0; j < r.chain.size(); ++j) {
      const VnfId f = r.chain[j];
      const std::uint32_t pos = positions.at(r.id.index(), j);
      const auto& admission = phase.admissions[f.index()];
      if (!admission.admitted[pos]) {
        out.admitted = false;
        break;
      }
      const std::uint32_t k = phase.schedules[f.index()].instance_of[pos];
      const auto& m = admission.admitted_metrics;
      const double mu_eff = phase.contexts[f.index()].problem.delivery_prob *
                            phase.contexts[f.index()].problem.service_rate;
      const double load = m.instance_load[k];
      NFV_CHECK(load < mu_eff);
      response += 1.0 / (mu_eff - load);
      nodes_scratch.push_back(
          result.placement.assignment[f.index()]->value());
    }
    if (!out.admitted) {
      out.response_latency = 0.0;
      out.link_latency = 0.0;
      out.nodes_traversed = 0;
      continue;
    }
    std::sort(nodes_scratch.begin(), nodes_scratch.end());
    nodes_scratch.erase(
        std::unique(nodes_scratch.begin(), nodes_scratch.end()),
        nodes_scratch.end());
    out.response_latency = response;
    out.nodes_traversed = static_cast<std::uint32_t>(nodes_scratch.size());
    out.link_latency =
        static_cast<double>(out.nodes_traversed - 1) * link_l;
    total += out.total_latency();
    ++admitted_count;
  }
  result.total_latency = total;
  result.avg_total_latency =
      admitted_count > 0 ? total / static_cast<double>(admitted_count) : 0.0;
  result.job_rejection_rate =
      1.0 - static_cast<double>(admitted_count) /
                static_cast<double>(model.workload.requests.size());

  const std::size_t vnf_count = model.workload.vnfs.size();
  double response_sum = 0.0;
  std::size_t instance_count = 0;
  for (std::size_t f = 0; f < vnf_count; ++f) {
    const auto& m = phase.admissions[f].admitted_metrics;
    const double mu_eff = phase.contexts[f].problem.delivery_prob *
                          phase.contexts[f].problem.service_rate;
    for (const double load : m.instance_load) {
      NFV_CHECK(load < mu_eff);
      response_sum += 1.0 / (mu_eff - load);
      ++instance_count;
    }
  }
  result.avg_response =
      instance_count > 0
          ? response_sum / static_cast<double>(instance_count)
          : 0.0;
  result.feasible = true;
}

TEST(SolverDifferential, SplitEvaluateMatchesOnePassUnderAdmissionPressure) {
  std::size_t rejected = 0;
  std::size_t admitted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // Arrival rates scaled 4..9×, so ρ_max admission rejects part of the
    // load on most seeds.
    SystemModel model = make_small_model(seed);
    for (auto& r : model.workload.requests) {
      r.arrival_rate *= static_cast<double>(4 + seed % 6);
    }
    JointConfig with_l = spec_config();
    JointConfig mean_l = spec_config();
    mean_l.link_latency.reset();  // the topology's mean link latency
    for (const JointConfig& cfg : {with_l, mean_l}) {
      const JointOptimizer joint(cfg);
      const PreparedModel in = joint.prepare(model);
      SchedulePass pass = joint.schedule(in, seed);
      for (std::size_t i = 0; i < pass.items(); ++i) pass.run_item(i);
      const ScheduleResult phase = std::move(pass).finish();
      const PhaseTerms terms = phase_terms(model, phase);
      const double link_l = cfg.link_latency.value_or(
          model.topology.mean_link_latency());
      for (const std::string id : {"bfdsu", "lp", "pso"}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " " + id);
        JointResult got =
            joint.place(in, *budgeted_backend(id, kWorkBudget), seed);
        ASSERT_TRUE(got.placement.feasible);
        JointResult want = got;
        joint.evaluate(model, terms, got);
        spec_evaluate(model, phase, link_l, want);
        EXPECT_EQ(got.feasible, want.feasible);
        ASSERT_EQ(got.requests.size(), want.requests.size());
        for (std::size_t r = 0; r < want.requests.size(); ++r) {
          EXPECT_EQ(got.requests[r].admitted, want.requests[r].admitted);
          EXPECT_EQ(got.requests[r].response_latency,
                    want.requests[r].response_latency);
          EXPECT_EQ(got.requests[r].link_latency,
                    want.requests[r].link_latency);
          EXPECT_EQ(got.requests[r].nodes_traversed,
                    want.requests[r].nodes_traversed);
          ++(want.requests[r].admitted ? admitted : rejected);
        }
        EXPECT_EQ(got.total_latency, want.total_latency);
        EXPECT_EQ(got.avg_total_latency, want.avg_total_latency);
        EXPECT_EQ(got.job_rejection_rate, want.job_rejection_rate);
        EXPECT_EQ(got.avg_response, want.avg_response);
      }
    }
  }
  // Both the admitted and the rejected path are exercised.
  EXPECT_GT(rejected, admitted / 10);
  EXPECT_GT(admitted, rejected / 10);
}

}  // namespace
}  // namespace nfv::core
