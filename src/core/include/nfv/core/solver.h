// Solver portfolio (ROADMAP O5, DESIGN.md §17).
//
// A common interface over the joint pipeline's interchangeable phase-1
// backends — BFDSU (the paper's Algorithm 1), seeded PSO search, and an
// LP-relaxation/rounding solver — plus a PortfolioDriver that races them
// on the exec pool and returns the best feasible result under a total
// deterministic order.
//
// Budget: every backend is granted the same number of abstract work units
// (--work-budget, Placement::iterations), mapped to backend-local effort
// (PSO sweeps, LP subgradient steps, BFDSU passes); with no budget each
// backend runs its default effort.  No backend reads a clock, so every
// race is bit-identical for any --threads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/core/joint_optimizer.h"

namespace nfv::core {

/// Solver selection and work budget, set by the CLI's --solver and
/// --work-budget.
struct SolverConfig {
  /// "bfdsu" | "pso" | "lp" | "portfolio" (race all three).
  std::string solver = "bfdsu";
  /// Work-unit budget per backend; 0 = backend defaults.
  std::uint64_t work_budget = 0;

  /// Throws std::invalid_argument on an unknown solver id or a work
  /// budget above 1e12.
  void validate() const;

  /// All solver ids, sorted — the deterministic tie-break order.
  [[nodiscard]] static const std::vector<std::string>& solver_ids();
  [[nodiscard]] static bool known_solver(std::string_view id);
};

/// One backend's entry in the race, for reports and benches.  Every field
/// is a function of the problem, the seed and the work budget.
struct BackendRun {
  std::string id;            ///< "bfdsu" | "lp" | "pso"
  bool feasible = false;
  std::uint64_t rejected = 0;  ///< rejected requests (unplaced VNFs in place())
  double objective = 0.0;      ///< Eq. 16 latency (nodes in service in place())
  std::uint64_t work = 0;      ///< Placement::iterations spent
};

/// Result of a full-pipeline race.
struct SolverOutcome {
  JointResult result;        ///< the winner's result, verbatim
  std::string winner;        ///< backend id of `result`
  std::uint64_t budget_work = 0;
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
  /// the backends and work budget.  Both are validated here.
  PortfolioDriver(JointConfig base, SolverConfig solver);

  /// Full pipeline race: placement + scheduling + admission per backend,
  /// every backend seeded with the same user seed.
  [[nodiscard]] SolverOutcome run(const SystemModel& model,
                                  std::uint64_t seed) const;

  /// Placement-only race (no scheduling phase).  Order: feasible, fewest
  /// unplaced, nodes in service, resource occupation, backend id.
  [[nodiscard]] PlacementOutcome place(
      const placement::PlacementProblem& problem, std::uint64_t seed) const;

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
