// Best Fit Decreasing and Worst Fit Decreasing — classical comparators and
// ablation baselines.
#include "nfv/placement/algorithm.h"
#include "fit_util.h"

namespace nfv::placement {

namespace {

enum class FitPolicy { kBest, kWorst };

Placement fit_decreasing(const PlacementProblem& problem, FitPolicy policy) {
  problem.validate();
  Placement result;
  result.assignment.resize(problem.vnf_count());
  result.iterations = 1;
  std::vector<double> residual = problem.capacities;
  for (const std::uint32_t f : detail::demand_order_desc(problem)) {
    const double demand = problem.demands[f];
    auto chosen = static_cast<std::uint32_t>(problem.node_count());
    for (std::uint32_t v = 0; v < problem.node_count(); ++v) {
      if (!detail::fits(residual[v], demand)) continue;
      if (chosen == problem.node_count()) {
        chosen = v;
        continue;
      }
      const bool better = policy == FitPolicy::kBest
                              ? residual[v] < residual[chosen]
                              : residual[v] > residual[chosen];
      if (better) chosen = v;
    }
    if (chosen == problem.node_count()) return result;
    detail::assign(result, residual, f, chosen, demand);
  }
  result.feasible = true;
  return result;
}

}  // namespace

Placement BfdPlacement::place(const PlacementProblem& problem,
                              Rng& /*rng*/) const {
  return fit_decreasing(problem, FitPolicy::kBest);
}

Placement WfdPlacement::place(const PlacementProblem& problem,
                              Rng& /*rng*/) const {
  return fit_decreasing(problem, FitPolicy::kWorst);
}

}  // namespace nfv::placement
