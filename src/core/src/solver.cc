#include "nfv/core/solver.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "nfv/common/error.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"
#include "nfv/placement/lp_round.h"
#include "nfv/placement/metrics.h"
#include "nfv/placement/pso.h"

namespace nfv::core {

namespace {

/// Maps the shared work budget W to backend-local effort.  Every backend
/// receives its units through Placement::iterations-compatible knobs so
/// the race depends only on W, never on the clock.
struct Effort {
  placement::PsoPlacement::Options pso;
  placement::LpRoundPlacement::Options lp;
  placement::BfdsuPlacement::Options bfdsu;
};

Effort effort_for(const SolverConfig& cfg) {
  Effort e;
  if (cfg.work_budget > 0) {
    const std::uint64_t w = cfg.work_budget;
    // PSO charges swarm evaluations per sweep; LP one step per unit; BFDSU
    // one pass per unit (its own stall logic may stop earlier).
    e.pso.iterations = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        w / e.pso.swarm, 1, 10'000'000));
    e.lp.iterations = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(w, 1, 10'000'000));
    e.bfdsu.max_passes =
        static_cast<std::uint32_t>(std::clamp<std::uint64_t>(w, 1, 60));
    e.bfdsu.stall_limit = std::min(e.bfdsu.stall_limit, e.bfdsu.max_passes);
  }
  return e;
}

std::unique_ptr<placement::PlacementAlgorithm> make_backend(
    std::string_view id, const Effort& effort) {
  if (id == "bfdsu") {
    return std::make_unique<placement::BfdsuPlacement>(effort.bfdsu);
  }
  if (id == "pso") {
    return std::make_unique<placement::PsoPlacement>(effort.pso);
  }
  NFV_CHECK(id == "lp");  // backend_ids() only yields the three
  return std::make_unique<placement::LpRoundPlacement>(effort.lp);
}

/// The order in which a race claims its placement items: PSO first, then
/// the rest in id order.  One Sec. V-A instance (perfbench offline's batch,
/// one thread of a 4-core host) costs about 660 us in PSO, 160 us in BFDSU,
/// 140 us in LP and 230 us in the per-VNF phase-2 items, so claimed in id
/// order on two workers PSO starts only after LP and ends the race;
/// claimed first, it runs while the other placements and the phase-2 items
/// fill the second worker.  Only the claim order moves: every item still
/// writes its own id slot.
std::vector<std::size_t> longest_first(const std::vector<std::string>& ids) {
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(),
                        [&](std::size_t i) { return ids[i] == "pso"; });
  return order;
}

std::uint64_t count_rejected(const JointResult& result) {
  std::uint64_t rejected = 0;
  for (const auto& r : result.requests) {
    if (!r.admitted) ++rejected;
  }
  return rejected;
}

/// Total order over full-pipeline runs: feasible first, then fewest
/// rejections, then lowest Eq. 16 objective, then backend id — every
/// comparison is exact, so the argmin is unique and thread-count free.
bool run_better(const BackendRun& a, const BackendRun& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.rejected != b.rejected) return a.rejected < b.rejected;
  if (a.objective != b.objective) return a.objective < b.objective;
  return a.id < b.id;
}

}  // namespace

void SolverConfig::validate() const {
  if (!known_solver(solver)) {
    throw std::invalid_argument("solver: unknown solver '" + solver + "'");
  }
  if (work_budget > 1'000'000'000'000ULL) {
    throw std::invalid_argument("solver: work budget must be <= 1e12");
  }
}

const std::vector<std::string>& SolverConfig::solver_ids() {
  static const std::vector<std::string> kIds = {"bfdsu", "lp", "portfolio",
                                                "pso"};
  return kIds;
}

bool SolverConfig::known_solver(std::string_view id) {
  const auto& ids = solver_ids();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

PortfolioDriver::PortfolioDriver(JointConfig base, SolverConfig solver)
    : base_(std::move(base)), solver_(std::move(solver)) {
  solver_.validate();
  base_.exec.validate();
}

std::vector<std::string> PortfolioDriver::backend_ids() const {
  if (solver_.solver == "portfolio") return {"bfdsu", "lp", "pso"};
  return {solver_.solver};
}

std::string PortfolioDriver::backend_algorithm(std::string_view id) {
  if (id == "bfdsu") return "BFDSU";
  if (id == "pso") return "PSO";
  NFV_CHECK(id == "lp");
  return "LP";
}

SolverOutcome PortfolioDriver::run(const SystemModel& model,
                                   std::uint64_t seed) const {
  const std::vector<std::string> ids = backend_ids();
  const Effort effort = effort_for(solver_);

  // Race on the installed pool, or on one installed for the scope when
  // the exec config asks for threads and none is active.
  const exec::LocalPool pool(base_.exec.threads);

  // One parallel region: every backend's placement (longest first), then
  // the items of the one phase 2 they all share — Algorithm 2 reads the
  // workload only, so scheduling per backend would solve it three times.
  // Every backend gets the SAME user seed: a single-backend race is the
  // identity, and adding a backend never perturbs another's stream.  Only a
  // placer that reads_chains() needs the chain dedup, and no backend does.
  const JointOptimizer joint(base_);
  std::vector<std::unique_ptr<placement::PlacementAlgorithm>> placers;
  placers.reserve(ids.size());
  for (const std::string& id : ids) placers.push_back(make_backend(id, effort));
  const PreparedModel in = joint.prepare(
      model, std::any_of(placers.begin(), placers.end(),
                         [](const auto& p) { return p->reads_chains(); }));
  SchedulePass shared = joint.schedule(in, seed);
  std::vector<JointResult> results(ids.size());
  const std::vector<std::size_t> claim = longest_first(ids);
  exec::parallel_for(ids.size() + shared.items(), [&](std::size_t c) {
    if (c < ids.size()) {
      const obs::ScopedSpan span("core.solver.place");
      const std::size_t i = claim[c];
      results[i] = joint.place(in, *placers[i], seed);
    } else {
      const obs::ScopedSpan span("core.solver.schedule");
      shared.run_item(c - ids.size());
    }
  });

  // Phase-2 failures only surface when some placement is feasible, as
  // they did per backend.  Eq. 16's placement-independent terms are taken
  // once; each feasible placement adds only its link terms.
  std::optional<ScheduleResult> phase;
  std::optional<PhaseTerms> terms;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!results[i].placement.feasible) continue;
    if (!phase) phase.emplace(std::move(shared).finish());
    const obs::ScopedSpan span("core.solver.evaluate");
    if (!terms) terms.emplace(phase_terms(model, *phase));
    joint.evaluate(model, *terms, results[i]);
  }

  SolverOutcome outcome;
  outcome.budget_work = solver_.work_budget;
  outcome.backends.reserve(ids.size());
  std::size_t best = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    BackendRun entry;
    entry.id = ids[i];
    entry.feasible = results[i].feasible;
    entry.rejected = count_rejected(results[i]);
    entry.objective = results[i].total_latency;
    entry.work = results[i].placement.iterations;
    outcome.backends.push_back(std::move(entry));
    if (run_better(outcome.backends[i], outcome.backends[best])) best = i;
    obs::count("core.solver.backend_runs");
  }
  outcome.winner = ids[best];
  outcome.result = std::move(results[best]);
  if (outcome.result.placement.feasible) {
    outcome.result.adopt(std::move(*phase));
  }
  count_run(outcome.result);
  obs::count("core.solver.races");
  obs::count("core.solver.work", outcome.backends[best].work);
  return outcome;
}

PlacementOutcome PortfolioDriver::place(
    const placement::PlacementProblem& problem, std::uint64_t seed) const {
  problem.validate();
  const std::vector<std::string> ids = backend_ids();
  const Effort effort = effort_for(solver_);
  const exec::LocalPool pool(base_.exec.threads);

  struct Entry {
    placement::Placement placement;
    placement::PlacementMetrics metrics;
  };
  std::vector<Entry> entries(ids.size());
  const std::vector<std::size_t> claim = longest_first(ids);
  exec::parallel_for(ids.size(), [&](std::size_t c) {
    const std::size_t i = claim[c];
    const auto backend = make_backend(ids[i], effort);
    Rng rng(seed);  // same seed per backend, as cmd_place runs directly
    entries[i].placement = backend->place(problem, rng);
    entries[i].metrics = placement::evaluate(problem, entries[i].placement);
  });

  PlacementOutcome outcome;
  outcome.backends.reserve(ids.size());
  std::size_t best = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint64_t unplaced = 0;
    for (const auto& a : entries[i].placement.assignment) {
      if (!a.has_value()) ++unplaced;
    }
    BackendRun entry;
    entry.id = ids[i];
    entry.feasible = entries[i].placement.feasible;
    entry.rejected = unplaced;
    // Placement objective is Eq. 14's node count; resource occupation
    // breaks exact ties below (it is not folded into `objective`).
    entry.objective = static_cast<double>(entries[i].metrics.nodes_in_service);
    entry.work = entries[i].placement.iterations;
    outcome.backends.push_back(std::move(entry));
    const auto& a = outcome.backends[i];
    const auto& b = outcome.backends[best];
    const bool better =
        a.feasible != b.feasible ? a.feasible
        : a.rejected != b.rejected ? a.rejected < b.rejected
        : a.objective != b.objective ? a.objective < b.objective
        : entries[i].metrics.resource_occupation !=
                entries[best].metrics.resource_occupation
            ? entries[i].metrics.resource_occupation <
                  entries[best].metrics.resource_occupation
            : a.id < b.id;
    if (i != best && better) best = i;
    obs::count("core.solver.backend_runs");
  }
  outcome.winner = ids[best];
  outcome.placement = std::move(entries[best].placement);
  outcome.metrics = std::move(entries[best].metrics);
  obs::count("core.solver.races");
  return outcome;
}

}  // namespace nfv::core
