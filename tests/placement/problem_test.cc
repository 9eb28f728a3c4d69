#include "nfv/placement/problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::placement {
namespace {

TEST(PlacementProblem, Totals) {
  PlacementProblem p;
  p.capacities = {10.0, 20.0};
  p.demands = {5.0, 7.0};
  EXPECT_DOUBLE_EQ(p.total_capacity(), 30.0);
  EXPECT_DOUBLE_EQ(p.total_demand(), 12.0);
  EXPECT_FALSE(p.obviously_infeasible());
}

TEST(PlacementProblem, InfeasibleWhenDemandExceedsTotal) {
  PlacementProblem p;
  p.capacities = {10.0};
  p.demands = {6.0, 6.0};
  EXPECT_TRUE(p.obviously_infeasible());
}

TEST(PlacementProblem, InfeasibleWhenOnePieceTooBig) {
  PlacementProblem p;
  p.capacities = {10.0, 10.0};
  p.demands = {11.0};
  EXPECT_TRUE(p.obviously_infeasible());
}

TEST(PlacementProblem, ValidateRejectsBadData) {
  PlacementProblem p;
  EXPECT_THROW(p.validate(), std::invalid_argument);  // empty
  p.capacities = {10.0};
  p.demands = {0.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.demands = {5.0};
  p.chains = {{3}};  // out of range VNF index
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(MakeProblem, BuildsFromTopologyAndWorkload) {
  Rng rng(1);
  const auto topology =
      topo::make_star(5, topo::CapacitySpec{2000.0, 2000.0},
                      topo::LinkSpec{}, rng);
  workload::WorkloadConfig cfg;
  cfg.vnf_count = 8;
  cfg.request_count = 40;
  const workload::Workload w = workload::WorkloadGenerator(cfg).generate(rng);
  const PlacementProblem p = make_problem(topology, w);
  EXPECT_EQ(p.node_count(), 5u);
  EXPECT_EQ(p.vnf_count(), 8u);
  for (std::size_t f = 0; f < 8; ++f) {
    EXPECT_DOUBLE_EQ(p.demands[f], w.vnfs[f].total_demand());
  }
  EXPECT_FALSE(p.chains.empty());
  EXPECT_LE(p.chains.size(), w.requests.size());
}

TEST(MakeProblem, ChainsAreDeduplicatedAndFrequencyOrdered) {
  Rng rng(2);
  const auto topology =
      topo::make_star(3, topo::CapacitySpec{5000.0, 5000.0},
                      topo::LinkSpec{}, rng);
  workload::Workload w;
  workload::Vnf f0;
  f0.id = VnfId{0};
  f0.demand_per_instance = 10.0;
  f0.service_rate = 100.0;
  workload::Vnf f1 = f0;
  f1.id = VnfId{1};
  w.vnfs = {f0, f1};
  auto add_request = [&w](std::vector<VnfId> chain) {
    workload::Request r;
    r.id = RequestId{static_cast<std::uint32_t>(w.requests.size())};
    r.chain = std::move(chain);
    r.arrival_rate = 1.0;
    w.requests.push_back(std::move(r));
  };
  add_request({VnfId{0}});
  add_request({VnfId{0}, VnfId{1}});
  add_request({VnfId{0}, VnfId{1}});
  add_request({VnfId{0}, VnfId{1}});
  const PlacementProblem p = make_problem(topology, w);
  ASSERT_EQ(p.chains.size(), 2u);
  // The {0,1} chain occurs three times -> listed first.
  EXPECT_EQ(p.chains[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(p.chains[1], (std::vector<std::uint32_t>{0}));
}

/// make_problem's chain dedup as a std::map keyed by chain: ascending
/// chain order, then a stable sort by descending request count.
std::pair<std::vector<std::vector<std::uint32_t>>, std::vector<double>>
map_reference_chains(const workload::Workload& workload) {
  std::map<std::vector<std::uint32_t>, std::size_t> frequency;
  for (const auto& r : workload.requests) {
    std::vector<std::uint32_t> chain;
    for (const VnfId f : r.chain) chain.push_back(f.value());
    ++frequency[std::move(chain)];
  }
  std::vector<std::pair<std::vector<std::uint32_t>, std::size_t>> ordered(
      frequency.begin(), frequency.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::pair<std::vector<std::vector<std::uint32_t>>, std::vector<double>> out;
  for (auto& [chain, count] : ordered) {
    out.first.push_back(std::move(chain));
    out.second.push_back(static_cast<double>(count));
  }
  return out;
}

/// `requests` requests over `vnfs` VNFs with chains of 1..max_len VNFs
/// drawn with repetition (a VNF may recur inside one chain).  Few VNFs and
/// short chains make duplicates and count ties common.
workload::Workload random_chain_workload(Rng& rng, std::uint32_t vnfs,
                                         std::uint32_t requests,
                                         std::uint32_t max_len) {
  workload::Workload w;
  for (std::uint32_t f = 0; f < vnfs; ++f) {
    workload::Vnf v;
    v.id = VnfId{f};
    v.demand_per_instance = 10.0;
    v.service_rate = 100.0;
    w.vnfs.push_back(v);
  }
  for (std::uint32_t i = 0; i < requests; ++i) {
    workload::Request r;
    r.id = RequestId{i};
    const auto len = static_cast<std::uint32_t>(1 + rng.below(max_len));
    for (std::uint32_t k = 0; k < len; ++k) {
      r.chain.push_back(VnfId{static_cast<std::uint32_t>(rng.below(vnfs))});
    }
    r.arrival_rate = 1.0;
    w.requests.push_back(std::move(r));
  }
  return w;
}

void expect_chains_match_map_reference(const topo::Topology& topology,
                                       const workload::Workload& w,
                                       const std::string& where) {
  SCOPED_TRACE(where);
  const auto [chains, weights] = map_reference_chains(w);
  const PlacementProblem p = make_problem(topology, w);
  EXPECT_EQ(p.chains, chains);
  EXPECT_EQ(p.chain_weights, weights);
}

TEST(MakeProblem, ChainDedupMatchesMapReference) {
  Rng topo_rng(3);
  const auto topology = topo::make_star(
      4, topo::CapacitySpec{1e6, 1e6}, topo::LinkSpec{}, topo_rng);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto vnfs = static_cast<std::uint32_t>(1 + rng.below(4));
    const auto requests = static_cast<std::uint32_t>(1 + rng.below(200));
    const auto max_len = static_cast<std::uint32_t>(1 + rng.below(4));
    expect_chains_match_map_reference(
        topology, random_chain_workload(rng, vnfs, requests, max_len),
        "seed " + std::to_string(seed));
  }
  // Generated workloads: independent chains, and a few templates shared
  // by many requests.
  for (const std::uint32_t templates : {0u, 3u, 16u}) {
    workload::WorkloadConfig cfg;
    cfg.vnf_count = 12;
    cfg.request_count = 400;
    cfg.chain_template_count = templates;
    Rng rng(templates + 11);
    expect_chains_match_map_reference(
        topology, workload::WorkloadGenerator(cfg).generate(rng),
        "templates " + std::to_string(templates));
  }
}

TEST(MakeProblem, CountTiesKeepAscendingChainOrder) {
  Rng rng(4);
  const auto topology = topo::make_star(
      3, topo::CapacitySpec{1e6, 1e6}, topo::LinkSpec{}, rng);
  workload::Workload w = random_chain_workload(rng, 3, 0, 1);
  const auto add = [&w](std::vector<std::uint32_t> chain) {
    workload::Request r;
    r.id = RequestId{static_cast<std::uint32_t>(w.requests.size())};
    for (const std::uint32_t f : chain) r.chain.push_back(VnfId{f});
    r.arrival_rate = 1.0;
    w.requests.push_back(std::move(r));
  };
  // Twice each, listed out of order: {2}, {0,1}, {1,1}, {0}, {0,1,0}.
  for (int pass = 0; pass < 2; ++pass) {
    add({2});
    add({0, 1});
    add({1, 1});
    add({0});
    add({0, 1, 0});
  }
  add({1});  // once: ranks after every tied pair
  const PlacementProblem p = make_problem(topology, w);
  const std::vector<std::vector<std::uint32_t>> want = {
      {0}, {0, 1}, {0, 1, 0}, {1, 1}, {2}, {1}};
  EXPECT_EQ(p.chains, want);
  EXPECT_EQ(p.chain_weights, (std::vector<double>{2, 2, 2, 2, 2, 1}));
  expect_chains_match_map_reference(topology, w, "ties");
}

TEST(MakeProblem, SingleRequestWorkload) {
  Rng rng(5);
  const auto topology = topo::make_star(
      2, topo::CapacitySpec{1e6, 1e6}, topo::LinkSpec{}, rng);
  const workload::Workload w = random_chain_workload(rng, 3, 1, 4);
  const PlacementProblem p = make_problem(topology, w);
  ASSERT_EQ(p.chains.size(), 1u);
  EXPECT_EQ(p.chain_weights, (std::vector<double>{1.0}));
  expect_chains_match_map_reference(topology, w, "single request");
}

TEST(Placement, PlacesAccessor) {
  Placement p;
  p.assignment = {NodeId{2}, std::nullopt};
  EXPECT_TRUE(p.places(VnfId{0}, NodeId{2}));
  EXPECT_FALSE(p.places(VnfId{0}, NodeId{1}));
  EXPECT_FALSE(p.places(VnfId{1}, NodeId{0}));
  EXPECT_FALSE(p.places(VnfId{9}, NodeId{0}));  // out of range -> false
}

}  // namespace
}  // namespace nfv::placement
