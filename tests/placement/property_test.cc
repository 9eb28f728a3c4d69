// Property-based sweeps over all placement algorithms: every algorithm, on
// every feasible random instance, must produce a capacity-respecting
// complete assignment; consolidating algorithms must dominate spreading
// ones on used-node count in aggregate.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"

namespace nfv::placement {
namespace {

struct Scenario {
  std::string algorithm;
  std::size_t nodes;
  std::size_t vnfs;
  double load_factor;  // total demand / total capacity
};

class PlacementPropertyTest : public ::testing::TestWithParam<Scenario> {};

PlacementProblem random_instance(const Scenario& s, Rng& rng) {
  PlacementProblem p;
  p.capacities.reserve(s.nodes);
  double total_capacity = 0.0;
  for (std::size_t v = 0; v < s.nodes; ++v) {
    const double c = rng.uniform(500.0, 5000.0);
    p.capacities.push_back(c);
    total_capacity += c;
  }
  const double target_demand = total_capacity * s.load_factor;
  double remaining = target_demand;
  const double max_piece =
      *std::min_element(p.capacities.begin(), p.capacities.end());
  for (std::size_t f = 0; f < s.vnfs; ++f) {
    const double mean_piece = target_demand / static_cast<double>(s.vnfs);
    double d = std::min({rng.uniform(0.3, 1.7) * mean_piece, max_piece,
                         remaining});
    d = std::max(d, 1.0);
    p.demands.push_back(d);
    remaining -= d;
  }
  // A couple of simple chains so NAH has something to work with.
  std::vector<std::uint32_t> all(s.vnfs);
  std::iota(all.begin(), all.end(), 0);
  p.chains.push_back(all);
  return p;
}

TEST_P(PlacementPropertyTest, FeasibleSolutionsAreValidAndComplete) {
  const Scenario s = GetParam();
  const auto algo = make_placement_algorithm(s.algorithm);
  ASSERT_NE(algo, nullptr);
  int feasible_count = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 7919 + 13);
    const PlacementProblem p = random_instance(s, rng);
    if (p.obviously_infeasible()) continue;
    const Placement result = algo->place(p, rng);
    if (!result.feasible) continue;
    ++feasible_count;
    // Completeness (Eq. 2: every VNF placed exactly once).
    for (std::size_t f = 0; f < p.vnf_count(); ++f) {
      EXPECT_TRUE(result.assignment[f].has_value())
          << s.algorithm << " left VNF " << f << " unplaced";
    }
    // Capacity constraint (Eq. 6) — evaluate() throws on violation.
    const PlacementMetrics m = evaluate(p, result);
    EXPECT_GT(m.nodes_in_service, 0u);
    EXPECT_NEAR(m.total_load, p.total_demand(), 1e-6);
    EXPECT_GT(result.iterations, 0u);
  }
  // At moderate load every algorithm should solve most instances.
  if (s.load_factor <= 0.6) {
    EXPECT_GT(feasible_count, 6) << s.algorithm;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementPropertyTest,
    ::testing::Values(
        Scenario{"FFD", 10, 15, 0.5}, Scenario{"FFD", 20, 30, 0.8},
        Scenario{"BFD", 10, 15, 0.5}, Scenario{"BFD", 20, 30, 0.8},
        Scenario{"WFD", 10, 15, 0.5}, Scenario{"NAH", 10, 15, 0.5},
        Scenario{"NAH", 20, 30, 0.8}, Scenario{"BFDSU", 10, 15, 0.5},
        Scenario{"BFDSU", 20, 30, 0.8}, Scenario{"BFDSU", 4, 6, 0.3},
        Scenario{"FFD", 50, 30, 0.4}, Scenario{"BFDSU", 50, 30, 0.4}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return param_info.param.algorithm + "_" +
             std::to_string(param_info.param.nodes) + "n_" +
             std::to_string(param_info.param.vnfs) + "f_" +
             std::to_string(static_cast<int>(param_info.param.load_factor * 100));
    });

TEST(PlacementAggregate, BfdsuUsesNoMoreNodesThanWfdOnAverage) {
  double bfdsu_nodes = 0.0;
  double wfd_nodes = 0.0;
  int counted = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 1000);
    const Scenario s{"", 12, 18, 0.55};
    const PlacementProblem p = random_instance(s, rng);
    const Placement a = BfdsuPlacement{}.place(p, rng);
    const Placement b = WfdPlacement{}.place(p, rng);
    if (!a.feasible || !b.feasible) continue;
    bfdsu_nodes += static_cast<double>(evaluate(p, a).nodes_in_service);
    wfd_nodes += static_cast<double>(evaluate(p, b).nodes_in_service);
    ++counted;
  }
  ASSERT_GT(counted, 10);
  EXPECT_LT(bfdsu_nodes, wfd_nodes);
}

TEST(PlacementAggregate, UtilizationOrderingMatchesPaper) {
  // Fig. 5-7 ordering in aggregate: BFDSU > FFD and BFDSU > NAH on average
  // utilization of used nodes.
  double bfdsu = 0.0;
  double ffd = 0.0;
  double nah = 0.0;
  int counted = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 5000);
    const Scenario s{"", 12, 18, 0.55};
    const PlacementProblem p = random_instance(s, rng);
    const Placement a = BfdsuPlacement{}.place(p, rng);
    const Placement b = FfdPlacement{}.place(p, rng);
    const Placement c = NahPlacement{}.place(p, rng);
    if (!a.feasible || !b.feasible || !c.feasible) continue;
    bfdsu += evaluate(p, a).avg_utilization_of_used;
    ffd += evaluate(p, b).avg_utilization_of_used;
    nah += evaluate(p, c).avg_utilization_of_used;
    ++counted;
  }
  ASSERT_GT(counted, 10);
  EXPECT_GT(bfdsu, ffd);
  EXPECT_GT(bfdsu, nah);
}

}  // namespace
}  // namespace nfv::placement
