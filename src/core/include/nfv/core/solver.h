// Solver portfolio with anytime racing (ROADMAP O5, DESIGN.md §17).
//
// A common interface over the joint pipeline's interchangeable phase-1
// backends — BFDSU (the paper's Algorithm 1), seeded PSO search, and an
// LP-relaxation/rounding solver — plus a PortfolioDriver that races them
// on the exec pool under a wall-clock or work budget and returns the best
// feasible result under a total deterministic order.
//
// Budget semantics:
//   * work budget (`work`, or --work-budget): every backend is granted the
//     same number of abstract work units (Placement::iterations), mapped to
//     backend-local effort (PSO sweeps, LP subgradient steps, BFDSU
//     passes).  With `det` (--deterministic-budget) set, the race depends
//     only on the budget — results are bit-identical for any thread count.
//   * wall budget (`budget-ms`, or --budget-ms): a shared steady-clock
//     deadline handed to the anytime backends (PSO, LP check it once per
//     sweep/step; BFDSU runs its stall-bounded multi-start to completion).
//     Faster machines explore more — results are *not* run-to-run stable
//     unless `det` is also set, which ignores the clock.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/core/joint_optimizer.h"

namespace nfv::core {

/// Solver selection + budget knobs, shared by the CLI --solver flags, the
/// `solver[:key=value,...]` spec grammar, and the fuzz harness.
struct SolverConfig {
  /// "bfdsu" | "pso" | "lp" | "portfolio" (race all three).
  std::string solver = "bfdsu";
  /// Wall-clock budget in milliseconds; 0 = none.
  double budget_ms = 0.0;
  /// Work-unit budget per backend; 0 = backend defaults.
  std::uint64_t work_budget = 0;
  /// Ignore the clock: effort derives from work_budget only, so a run is
  /// bit-identical for any --threads (the acceptance contract).
  bool deterministic_budget = false;

  // Backend effort defaults, used when work_budget == 0.
  std::uint32_t pso_swarm = 16;
  std::uint32_t pso_iterations = 48;
  std::uint32_t lp_iterations = 240;

  /// Throws std::invalid_argument on an unknown solver id or an
  /// out-of-range knob (non-finite/negative budgets, zero swarm, ...).
  void validate() const;

  /// All solver ids, sorted — the deterministic tie-break order.
  [[nodiscard]] static const std::vector<std::string>& solver_ids();
  [[nodiscard]] static bool known_solver(std::string_view id);
};

/// Parses `solver[:key=value,...]` — e.g. "portfolio:work=64,det=1" or
/// "pso:pso-swarm=8,pso-iters=4".  Keys: pso-swarm, pso-iters, lp-iters,
/// work, budget-ms, det.  Throws std::invalid_argument on malformed input
/// or out-of-range values (the parsed config is validate()d).
[[nodiscard]] SolverConfig parse_solver_spec(std::string_view spec);

/// One backend's entry in the race, for reports and benches.
struct BackendRun {
  std::string id;            ///< "bfdsu" | "lp" | "pso"
  bool feasible = false;
  std::uint64_t rejected = 0;  ///< rejected requests (unplaced VNFs in place())
  double objective = 0.0;      ///< Eq. 16 latency (nodes in service in place())
  std::uint64_t work = 0;      ///< Placement::iterations consumed
};

/// Result of a full-pipeline race.
struct SolverOutcome {
  JointResult result;        ///< the winner's result, verbatim
  std::string winner;        ///< backend id of `result`
  bool deterministic = false;
  std::uint64_t budget_work = 0;
  double budget_ms = 0.0;
  std::vector<BackendRun> backends;  ///< in id order
};

/// Result of a placement-only race (cmd_place).
struct PlacementOutcome {
  placement::Placement placement;
  placement::PlacementMetrics metrics;
  std::string winner;
  std::vector<BackendRun> backends;  ///< in id order
};

/// Races the configured backend set on the exec pool and keeps the best
/// result under the total order (feasible, rejected, objective, backend
/// id).  A single-backend "race" is the identity: same seed, same effort,
/// bitwise the same result as running that backend directly.
class PortfolioDriver {
 public:
  /// `base` supplies everything but the placement backend (scheduling
  /// algorithm, rho_max, link latency, exec config); `solver` picks
  /// the backends and budget.  Both are validated here.
  PortfolioDriver(JointConfig base, SolverConfig solver);

  /// Full pipeline race: placement + scheduling + admission per backend,
  /// every backend seeded with the same user seed.
  [[nodiscard]] SolverOutcome run(const SystemModel& model,
                                  std::uint64_t seed) const;

  /// Placement-only race (no scheduling phase).  Order: feasible, fewest
  /// unplaced, nodes in service, resource occupation, backend id.
  [[nodiscard]] PlacementOutcome place(
      const placement::PlacementProblem& problem, std::uint64_t seed) const;

  [[nodiscard]] const SolverConfig& solver_config() const { return solver_; }

  /// Backend ids this driver races, sorted ("bfdsu" < "lp" < "pso");
  /// singleton unless solver == "portfolio".
  [[nodiscard]] std::vector<std::string> backend_ids() const;

  /// Maps a solver backend id to the placement algorithm display name
  /// ("bfdsu" -> "BFDSU", "pso" -> "PSO", "lp" -> "LP").
  [[nodiscard]] static std::string backend_algorithm(std::string_view id);

 private:
  JointConfig base_;
  SolverConfig solver_;
};

}  // namespace nfv::core
