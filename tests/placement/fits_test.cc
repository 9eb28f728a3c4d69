// Unit tests of the deterministic fit family: FFD, BFD, WFD.
#include <gtest/gtest.h>

#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"

namespace nfv::placement {
namespace {

PlacementProblem uniform_problem(std::vector<double> demands,
                                 std::size_t nodes, double capacity) {
  PlacementProblem p;
  p.capacities.assign(nodes, capacity);
  p.demands = std::move(demands);
  return p;
}

TEST(Ffd, ClassicInstance) {
  // Demands {7,5,4,3,1} into capacity-10 bins: FFD -> {7,3},{5,4,1}: 2 bins.
  Rng rng(1);
  const auto p = uniform_problem({7, 5, 4, 3, 1}, 5, 10.0);
  const Placement result = FfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  const PlacementMetrics m = evaluate(p, result);
  EXPECT_EQ(m.nodes_in_service, 2u);
  EXPECT_DOUBLE_EQ(m.avg_utilization_of_used, 1.0);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Ffd, InfeasibleReportsFailure) {
  Rng rng(2);
  const auto p = uniform_problem({6, 6, 6}, 1, 10.0);
  const Placement result = FfdPlacement{}.place(p, rng);
  EXPECT_FALSE(result.feasible);
}

TEST(Ffd, PrefersLowIndexNodes) {
  Rng rng(3);
  const auto p = uniform_problem({2, 2}, 3, 10.0);
  const Placement result = FfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(*result.assignment[0], NodeId{0});
  EXPECT_EQ(*result.assignment[1], NodeId{0});
}

TEST(Bfd, PicksTightestNode) {
  PlacementProblem p;
  p.capacities = {10.0, 6.0};
  p.demands = {5.0};
  Rng rng(6);
  const Placement result = BfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(*result.assignment[0], NodeId{1});  // 6 is tighter than 10
}

TEST(Wfd, PicksLoosestNode) {
  PlacementProblem p;
  p.capacities = {10.0, 6.0};
  p.demands = {5.0};
  Rng rng(7);
  const Placement result = WfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(*result.assignment[0], NodeId{0});
}

TEST(Wfd, SpreadsLoad) {
  // Two equal nodes, two equal items: WFD puts one on each.
  Rng rng(8);
  const auto p = uniform_problem({4, 4}, 2, 10.0);
  const Placement result = WfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  EXPECT_NE(*result.assignment[0], *result.assignment[1]);
}

TEST(Bfd, ConsolidatesLoad) {
  Rng rng(9);
  const auto p = uniform_problem({4, 4}, 2, 10.0);
  const Placement result = BfdPlacement{}.place(p, rng);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(*result.assignment[0], *result.assignment[1]);
}

TEST(FitFamily, ExactFitLeavesZeroResidual) {
  Rng rng(10);
  const auto p = uniform_problem({10, 10}, 2, 10.0);
  for (const auto* name : {"FFD", "BFD", "WFD"}) {
    const auto algo = make_placement_algorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    const Placement result = algo->place(p, rng);
    ASSERT_TRUE(result.feasible) << name;
    const PlacementMetrics m = evaluate(p, result);
    EXPECT_EQ(m.nodes_in_service, 2u) << name;
    EXPECT_DOUBLE_EQ(m.avg_utilization_of_used, 1.0) << name;
  }
}

TEST(FitFamily, SingleItemSingleNode) {
  Rng rng(11);
  const auto p = uniform_problem({3}, 1, 10.0);
  for (const auto* name : {"FFD", "BFD", "WFD"}) {
    const auto algo = make_placement_algorithm(name);
    const Placement result = algo->place(p, rng);
    ASSERT_TRUE(result.feasible) << name;
    EXPECT_EQ(*result.assignment[0], NodeId{0}) << name;
  }
}

TEST(Registry, KnowsAllNamesAndRejectsUnknown) {
  for (const auto& name : placement_algorithm_names()) {
    const auto algo = make_placement_algorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);
  }
  EXPECT_EQ(make_placement_algorithm("NoSuchAlgo"), nullptr);
}

}  // namespace
}  // namespace nfv::placement
