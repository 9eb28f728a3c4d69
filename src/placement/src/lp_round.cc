#include "nfv/placement/lp_round.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "nfv/common/error.h"
#include "nfv/obs/metrics.h"
#include "fit_util.h"

namespace nfv::placement {

namespace {

/// Euclidean projection of one row onto the probability simplex
/// (Duchi et al. 2008): sort descending, find the pivot, shift and clip.
/// O(V log V), deterministic.
void project_to_simplex(std::vector<double>& row,
                        std::vector<double>& sorted) {
  sorted = row;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double theta = 0.0;
  std::size_t pivot = 0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    cumulative += sorted[j];
    const double candidate =
        (cumulative - 1.0) / static_cast<double>(j + 1);
    if (sorted[j] - candidate > 0.0) {
      theta = candidate;
      pivot = j + 1;
    }
  }
  NFV_CHECK(pivot >= 1);
  for (double& x : row) x = std::max(0.0, x - theta);
}

}  // namespace

LpRoundPlacement::LpRoundPlacement(Options options) : options_(options) {
  NFV_REQUIRE(options_.iterations >= 1);
  NFV_REQUIRE(options_.step > 0.0);
  NFV_REQUIRE(options_.penalty >= 0.0);
}

Placement LpRoundPlacement::place(const PlacementProblem& problem,
                                  Rng& /*rng*/) const {
  problem.validate();
  const std::size_t vnfs = problem.vnf_count();
  const std::size_t nodes = problem.node_count();

  // x[v]: the fractional row x_{f,·} of every VNF f.  Each starts uniform
  // and takes the same step (the score has no f term), so they never
  // differ.
  std::vector<double> x(nodes, 1.0 / static_cast<double>(nodes));
  std::vector<double> load(nodes);
  std::vector<double> score(nodes);
  std::vector<double> sorted_scratch(nodes);
  const double max_capacity =
      *std::max_element(problem.capacities.begin(), problem.capacities.end());

  for (std::uint32_t t = 1; t <= options_.iterations; ++t) {
    // Σ_f d_f·x_v accumulated per f, not as (Σ_f d_f)·x_v: the rounding
    // of each partial sum is part of the answer LpRoundSpec pins.
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t f = 0; f < vnfs; ++f) {
      for (std::size_t v = 0; v < nodes; ++v) {
        load[v] += problem.demands[f] * x[v];
      }
    }
    // Per-node subgradient: concentrate onto large nodes (capacity cost)
    // while a growing penalty β_t prices fractional overload.  The demand
    // factor d_f scales a whole row uniformly, so it cancels against the
    // row-wise simplex projection and is dropped.
    const double beta =
        options_.penalty * static_cast<double>(t) /
        static_cast<double>(options_.iterations);
    for (std::size_t v = 0; v < nodes; ++v) {
      const double capacity = problem.capacities[v];
      const double overload = std::max(0.0, load[v] - capacity) / capacity;
      score[v] = max_capacity / capacity - 1.0 + beta * overload;
    }
    const double eta = options_.step / std::sqrt(static_cast<double>(t));
    for (std::size_t v = 0; v < nodes; ++v) x[v] -= eta * score[v];
    project_to_simplex(x, sorted_scratch);
  }

  // Mass-ranked first fit: descending-demand VNFs each take the first node
  // in descending-mass order (lowest index on ties) that still fits.
  std::vector<std::uint32_t> by_mass(nodes);
  std::iota(by_mass.begin(), by_mass.end(), 0u);
  std::stable_sort(by_mass.begin(), by_mass.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return x[a] > x[b]; });
  Placement result;
  result.assignment.assign(vnfs, std::nullopt);
  result.iterations = options_.iterations;
  std::vector<double> residual = problem.capacities;
  bool feasible = true;
  for (const std::uint32_t f : detail::demand_order_desc(problem)) {
    const double demand = problem.demands[f];
    const auto chosen =
        std::find_if(by_mass.begin(), by_mass.end(), [&](std::uint32_t v) {
          return detail::fits(residual[v], demand);
        });
    if (chosen == by_mass.end()) {
      feasible = false;  // no node can hold this VNF any more
      continue;
    }
    detail::assign(result, residual, f, *chosen, demand);
  }
  result.feasible = feasible;
  obs::count("placement.lp.steps", options_.iterations);
  return result;
}

}  // namespace nfv::placement
