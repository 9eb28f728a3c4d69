// LpRoundPlacement keeps one shared fractional row instead of one row per
// VNF.  The |F|-row solver it replaced lives on here as the executable
// specification — the row copies, per-row projections and the
// largest-fraction rounding scan — and the one-row solver must reproduce
// its assignment, feasibility and step count bit for bit.
#include "nfv/placement/lp_round.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fit_util.h"
#include "nfv/common/rng.h"

namespace nfv::placement {
namespace {

// ---- Executable specification: the |F|-row solver --------------------

void spec_project_to_simplex(std::vector<double>& row,
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

Placement spec_place(const PlacementProblem& problem,
                     const LpRoundPlacement::Options& options) {
  problem.validate();
  const std::size_t vnfs = problem.vnf_count();
  const std::size_t nodes = problem.node_count();

  // x[f*nodes + v]: fractional assignment rows, each on the simplex.
  std::vector<double> x(vnfs * nodes,
                        1.0 / static_cast<double>(nodes));
  std::vector<double> load(nodes);
  std::vector<double> score(nodes);
  std::vector<double> sorted_scratch(nodes);
  const double max_capacity =
      *std::max_element(problem.capacities.begin(), problem.capacities.end());

  for (std::uint32_t t = 1; t <= options.iterations; ++t) {
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t f = 0; f < vnfs; ++f) {
      for (std::size_t v = 0; v < nodes; ++v) {
        load[v] += problem.demands[f] * x[f * nodes + v];
      }
    }
    const double beta =
        options.penalty * static_cast<double>(t) /
        static_cast<double>(options.iterations);
    for (std::size_t v = 0; v < nodes; ++v) {
      const double capacity = problem.capacities[v];
      const double overload = std::max(0.0, load[v] - capacity) / capacity;
      score[v] = max_capacity / capacity - 1.0 + beta * overload;
    }
    const double eta = options.step / std::sqrt(static_cast<double>(t));
    for (std::size_t f = 0; f < vnfs; ++f) {
      std::vector<double> row(x.begin() +
                                  static_cast<std::ptrdiff_t>(f * nodes),
                              x.begin() +
                                  static_cast<std::ptrdiff_t>((f + 1) * nodes));
      for (std::size_t v = 0; v < nodes; ++v) row[v] -= eta * score[v];
      spec_project_to_simplex(row, sorted_scratch);
      std::copy(row.begin(), row.end(),
                x.begin() + static_cast<std::ptrdiff_t>(f * nodes));
    }
  }

  Placement result;
  result.assignment.assign(vnfs, std::nullopt);
  result.iterations = options.iterations;
  std::vector<double> residual = problem.capacities;
  bool feasible = true;
  for (const std::uint32_t f : detail::demand_order_desc(problem)) {
    const double demand = problem.demands[f];
    std::uint32_t chosen = 0xffffffffu;
    double best_mass = -1.0;
    for (std::uint32_t v = 0; v < nodes; ++v) {
      if (!detail::fits(residual[v], demand)) continue;
      const double mass = x[f * nodes + v];
      if (mass > best_mass) {
        best_mass = mass;
        chosen = v;
      }
    }
    if (chosen == 0xffffffffu) {
      feasible = false;
      continue;
    }
    detail::assign(result, residual, f, chosen, demand);
  }
  result.feasible = feasible;
  return result;
}

// ---- Instances --------------------------------------------------------

/// 1–60 nodes and 1–40 VNFs; homogeneous capacities on even seeds,
/// heterogeneous on odd ones.  Total demand runs from 20% to 120% of
/// total capacity, so some instances cannot be rounded feasibly.
PlacementProblem random_problem(std::uint64_t seed) {
  Rng rng(seed * 6151 + 7);
  PlacementProblem p;
  const auto nodes = static_cast<std::size_t>(1 + rng.below(60));
  const auto vnfs = static_cast<std::size_t>(1 + rng.below(40));
  const double base = rng.uniform(500.0, 5000.0);
  for (std::size_t v = 0; v < nodes; ++v) {
    p.capacities.push_back(seed % 2 == 0 ? base
                                         : base * rng.uniform(0.25, 1.0));
  }
  const double mean_demand =
      rng.uniform(0.2, 1.2) * p.total_capacity() / static_cast<double>(vnfs);
  for (std::size_t f = 0; f < vnfs; ++f) {
    p.demands.push_back(mean_demand * rng.uniform(0.2, 1.8));
  }
  return p;
}

/// Checks the solver against the spec; returns the solver's placement.
Placement expect_matches_spec(const PlacementProblem& problem,
                              const LpRoundPlacement::Options& options,
                              const std::string& where) {
  SCOPED_TRACE(where);
  const Placement want = spec_place(problem, options);
  Rng rng(1);
  const Placement got = LpRoundPlacement(options).place(problem, rng);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.iterations, want.iterations);
  return got;
}

TEST(LpRoundSpec, OneRowMatchesPerVnfRowsOnSeededInstances) {
  constexpr std::uint32_t kIterations[] = {1, 7, 240, 1000};
  constexpr std::uint64_t kInstances = 1000;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 0; seed < kInstances; ++seed) {
    const PlacementProblem problem = random_problem(seed);
    LpRoundPlacement::Options options;
    options.iterations = kIterations[seed % 4];
    switch ((seed / 4) % 3) {
      case 0: break;  // defaults: step 0.5, penalty 8
      case 1: options.penalty = 0.0; break;
      default: options.step = 3.0; break;
    }
    const Placement got = expect_matches_spec(
        problem, options,
        "seed " + std::to_string(seed) + " nodes " +
            std::to_string(problem.node_count()) + " vnfs " +
            std::to_string(problem.vnf_count()) + " steps " +
            std::to_string(options.iterations));
    ++(got.feasible ? feasible : infeasible);
  }
  // Both rounding outcomes are exercised.
  EXPECT_GT(feasible, kInstances / 10);
  EXPECT_GT(infeasible, kInstances / 10);
}

}  // namespace
}  // namespace nfv::placement
