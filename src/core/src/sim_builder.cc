#include "nfv/core/sim_builder.h"

#include "nfv/common/error.h"

namespace nfv::core {

SimBuildOutput build_sim_network(const SystemModel& model,
                                 const JointResult& result) {
  NFV_REQUIRE(result.feasible);
  SimBuildOutput out;

  // Stations: all instances of all VNFs, flattened.
  out.index_map.base.resize(model.workload.vnfs.size());
  for (std::size_t f = 0; f < model.workload.vnfs.size(); ++f) {
    out.index_map.base[f] =
        static_cast<std::uint32_t>(out.network.stations.size());
    const workload::Vnf& vnf = model.workload.vnfs[f];
    for (std::uint32_t k = 0; k < vnf.instance_count; ++k) {
      out.network.stations.push_back(sim::Station{vnf.service_rate});
    }
  }

  // Request -> per-VNF problem position (as in phase_terms).
  const ChainPositionIndex positions =
      make_chain_position_index(model.workload, result.contexts);

  for (const auto& r : model.workload.requests) {
    const RequestOutcome& outcome = result.requests[r.id.index()];
    if (!outcome.admitted) continue;
    sim::Flow flow;
    flow.rate = r.arrival_rate;
    flow.delivery_prob = r.delivery_prob;
    flow.path.reserve(r.chain.size());
    flow.hop_latency.assign(r.chain.size() + 1, 0.0);
    NodeId previous_node{};
    bool have_previous = false;
    for (std::size_t hop = 0; hop < r.chain.size(); ++hop) {
      const VnfId f = r.chain[hop];
      const std::uint32_t pos = positions.at(r.id.index(), hop);
      const InstanceIndex k = result.schedules[f.index()].instance_of[pos];
      flow.path.push_back(out.index_map.station(f, k));
      const NodeId node = *result.placement.assignment[f.index()];
      if (have_previous && node != previous_node) {
        flow.hop_latency[hop] =
            model.topology.path_latency(previous_node, node);
      }
      previous_node = node;
      have_previous = true;
    }
    out.network.flows.push_back(std::move(flow));
    out.flow_request.push_back(r.id);
  }
  NFV_REQUIRE(!out.network.flows.empty());
  out.network.validate();
  return out;
}

}  // namespace nfv::core
