// Consolidation study (the paper's Fig. 1 motivation): an operator has a
// rack of servers and a fixed VNF estate — how many servers can each
// placement policy switch off, and what does that do to per-request
// latency?
//
//   $ ./datacenter_consolidation [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "nfv/common/table.h"
#include "nfv/core/joint_optimizer.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace {

nfv::core::SystemModel build_model(std::uint64_t seed) {
  nfv::Rng rng(seed);
  nfv::core::SystemModel model;
  // A 16-server rack behind one ToR switch; heterogeneous capacities
  // (older and newer servers side by side).
  model.topology = nfv::topo::make_star(
      16, nfv::topo::CapacitySpec{1500.0, 5000.0},
      nfv::topo::LinkSpec{150e-6}, rng);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 20;
  wcfg.request_count = 300;
  wcfg.chain_template_count = 12;  // a dozen service offerings
  wcfg.service_headroom = 1.15;
  model.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
  return model;
}

// Linear server power model (energy characterization per Xu et al. [28]):
// a powered node draws an idle floor plus a part linear in CPU
// utilization; a node with no VNFs is switched off and draws nothing.
constexpr double kIdleWatts = 150.0;  // typical 2-socket server floor
constexpr double kPeakWatts = 400.0;  // at 100% CPU

struct Watts {
  double total = 0.0;   // over powered nodes
  double all_on = 0.0;  // if every node stayed powered at its load
};

Watts placement_watts(const nfv::core::SystemModel& model,
                      const nfv::core::JointResult& result) {
  std::vector<double> load(model.topology.compute_count(), 0.0);
  for (std::size_t f = 0; f < model.workload.vnfs.size(); ++f) {
    load[result.placement.assignment[f]->index()] +=
        model.workload.vnfs[f].total_demand();
  }
  Watts watts;
  for (const nfv::NodeId v : model.topology.nodes()) {
    const double utilization =
        std::min(1.0, load[v.index()] / model.topology.capacity(v));
    const double node = kIdleWatts + (kPeakWatts - kIdleWatts) * utilization;
    watts.all_on += node;
    if (load[v.index()] > 0.0) watts.total += node;
  }
  return watts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const nfv::core::SystemModel model = build_model(seed);

  std::printf(
      "Consolidating %zu VNFs (%0.0f capacity units of demand) on a "
      "16-server rack\n\n",
      model.workload.vnfs.size(), model.workload.total_demand());

  nfv::Table table({"policy", "servers on", "avg utilization %",
                    "watts", "saved W", "avg request latency",
                    "rejection %"});
  table.set_precision(3);
  for (const auto* placer : {"BFDSU", "BFD", "FFD", "NAH", "WFD"}) {
    nfv::core::JointConfig cfg;
    cfg.placement_algorithm = placer;
    cfg.scheduling_algorithm = "RCKK";
    const auto result = nfv::core::JointOptimizer(cfg).run(model, seed);
    if (!result.feasible) {
      table.add_row({std::string(placer), std::string("-"),
                     std::string("infeasible"), std::string("-"),
                     std::string("-"), std::string("-"), std::string("-")});
      continue;
    }
    const Watts watts = placement_watts(model, result);
    table.add_row({std::string(placer),
                   static_cast<long long>(
                       result.placement_metrics.nodes_in_service),
                   100.0 * result.placement_metrics.avg_utilization_of_used,
                   watts.total, watts.all_on - watts.total,
                   result.avg_total_latency,
                   100.0 * result.job_rejection_rate});
  }
  std::fputs(table.markdown().c_str(), stdout);
  std::puts(
      "\nEvery server not in service can be powered down; BFDSU keeps the\n"
      "same workload on the fewest, fullest servers (the paper's\n"
      "inter-server -> intra-server processing conversion of Fig. 1).");
  return 0;
}
