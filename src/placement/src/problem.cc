#include "nfv/placement/problem.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "nfv/common/error.h"

namespace nfv::placement {

double PlacementProblem::total_capacity() const {
  double total = 0.0;
  for (const double c : capacities) total += c;
  return total;
}

double PlacementProblem::total_demand() const {
  double total = 0.0;
  for (const double d : demands) total += d;
  return total;
}

bool PlacementProblem::obviously_infeasible() const {
  if (total_demand() > total_capacity()) return true;
  const double max_capacity =
      capacities.empty() ? 0.0
                         : *std::max_element(capacities.begin(), capacities.end());
  for (const double d : demands) {
    if (d > max_capacity) return true;
  }
  return false;
}

void PlacementProblem::validate() const {
  NFV_REQUIRE(!capacities.empty());
  NFV_REQUIRE(!demands.empty());
  for (const double c : capacities) NFV_REQUIRE(c > 0.0);
  for (const double d : demands) NFV_REQUIRE(d > 0.0);
  for (const auto& chain : chains) {
    for (const std::uint32_t f : chain) NFV_REQUIRE(f < demands.size());
  }
  NFV_REQUIRE(chain_weights.empty() || chain_weights.size() == chains.size());
  for (const double w : chain_weights) NFV_REQUIRE(w > 0.0);
}

PlacementProblem make_packing_problem(const topo::Topology& topology,
                                      const workload::Workload& workload) {
  PlacementProblem p;
  p.capacities.reserve(topology.compute_count());
  for (const NodeId v : topology.nodes()) {
    p.capacities.push_back(topology.capacity(v));
  }
  p.demands.reserve(workload.vnfs.size());
  for (const auto& f : workload.vnfs) {
    NFV_REQUIRE(f.id.index() == p.demands.size());  // dense VnfIds
    p.demands.push_back(f.total_demand());
  }
  p.validate();
  return p;
}

void add_chains(PlacementProblem& p, const workload::Workload& workload) {
  // Deduplicate chains: sort the requests on their chains (the order a
  // std::map keyed by chain has) and count each run of equal chains, then
  // stable-sort by descending count so chain-based algorithms handle the
  // hottest chains first; ties stay in ascending chain order.
  const auto& requests = workload.requests;
  std::vector<std::uint32_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return requests[a].chain < requests[b].chain;
  });
  std::vector<std::pair<std::uint32_t, std::size_t>> runs;  // (request, count)
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && requests[order[i]].chain == requests[order[i - 1]].chain) {
      ++runs.back().second;
    } else {
      runs.emplace_back(order[i], 1);
    }
  }
  std::stable_sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  p.chains.reserve(runs.size());
  p.chain_weights.reserve(runs.size());
  for (const auto& [r, count] : runs) {
    auto& chain = p.chains.emplace_back();
    chain.reserve(requests[r].chain.size());
    for (const VnfId f : requests[r].chain) chain.push_back(f.value());
    p.chain_weights.push_back(static_cast<double>(count));
  }
  p.validate();
}

PlacementProblem make_problem(const topo::Topology& topology,
                              const workload::Workload& workload) {
  PlacementProblem p = make_packing_problem(topology, workload);
  add_chains(p, workload);
  return p;
}

}  // namespace nfv::placement
