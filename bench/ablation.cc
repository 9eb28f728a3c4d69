// Ablations of the two design choices the paper motivates but never
// isolates:
//  (a) BFDSU's weighted-random tight-fit + used-node preference, vs its
//      deterministic core (BFD), the spread policy (WFD) and FFD;
//  (b) RCKK's reverse-order combination, vs forward KK, plain LPT and
//      budgeted CKK search;
//  (c) post-placement link-locality refinement (Eq. 16 direct descent).
#include <cstdio>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/stats.h"
#include "nfv/common/table.h"
#include "nfv/core/locality_refiner.h"
#include "nfv/topology/builders.h"

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_ablation", "Design-choice ablations");
  const auto& runs = cli.add_int("runs", 'r', "Monte-Carlo repetitions", 200);
  const auto& seed = cli.add_int("seed", 's', "base RNG seed", 21);
  const auto& csv = cli.add_flag("csv", 'c', "emit CSV instead of Markdown");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  nfv::bench::print_banner(
      "Ablation A — placement policy (15 VNFs, 12 nodes, load 0.60)",
      "BFDSU = weighted-random best fit + used-first multi-start;\n"
      "BFD = its deterministic single-pass core; WFD = spread policy.");

  {
    nfv::Table table({"algorithm", "avg utilization", "nodes in service",
                      "occupation", "iterations"});
    table.set_precision(4);
    for (const auto* name :
         {"BFDSU", "CABP", "SA", "BFD", "FFD", "WFD", "NAH"}) {
      nfv::bench::PlacementScenario s;
      s.nodes = 12;
      s.vnfs = 15;
      s.requests = 200;
      s.runs = static_cast<std::uint32_t>(runs);
      s.base_seed = static_cast<std::uint64_t>(seed);
      const auto r = nfv::bench::run_placement(s, name);
      table.add_row({std::string(name), r.avg_utilization, r.nodes_in_service,
                     r.occupation, r.iterations});
    }
    std::fputs(csv ? table.csv().c_str() : table.markdown().c_str(), stdout);
  }

  nfv::bench::print_banner(
      "Ablation B — scheduling policy (n = 50, m = 5, P = 0.98)",
      "RCKK = reverse-order m-way differencing; KK-fwd flips only the\n"
      "combination order; CKK adds budgeted search on top of RCKK.");

  {
    nfv::Table table({"algorithm", "avg W", "p99 W", "imbalance",
                      "work units"});
    table.set_precision(5);
    for (const auto* name : {"RCKK", "KK-fwd", "CKK", "LPT", "CGA", "CGA-online"}) {
      nfv::bench::SchedulingScenario s;
      s.requests = 50;
      s.instances = 5;
      s.delivery_prob = 0.98;
      s.runs = static_cast<std::uint32_t>(runs);
      s.base_seed = static_cast<std::uint64_t>(seed);
      const auto r = nfv::bench::run_scheduling(s, name);
      table.add_row({std::string(name), r.avg_response, r.p99_response,
                     r.imbalance, r.work});
    }
    std::fputs(csv ? table.csv().c_str() : table.markdown().c_str(), stdout);
  }
  nfv::bench::print_banner(
      "Ablation C — link-locality refinement (Eq. 16 direct descent)",
      "Greedy single-VNF moves after placement, shrinking the per-request\n"
      "(Ση−1)·L link term without touching schedules.");

  {
    nfv::Table table({"pipeline", "link cost before", "link cost after",
                      "moves", "reduction %"});
    table.set_precision(2);
    for (const auto* placer : {"BFDSU", "FFD", "NAH", "WFD"}) {
      nfv::OnlineStats before;
      nfv::OnlineStats after;
      nfv::OnlineStats moves;
      for (std::uint32_t run = 0; run < 20; ++run) {
        nfv::Rng rng(static_cast<std::uint64_t>(seed) + run);
        nfv::core::SystemModel model;
        model.topology = nfv::topo::make_star(
            10, nfv::topo::CapacitySpec{1500.0, 3000.0},
            nfv::topo::LinkSpec{1e-3}, rng);
        nfv::workload::WorkloadConfig wcfg;
        wcfg.vnf_count = 14;
        wcfg.request_count = 120;
        wcfg.fixed_demand_per_instance = 40.0;
        wcfg.chain_template_count = 10;
        model.workload =
            nfv::workload::WorkloadGenerator(wcfg).generate(rng);
        nfv::core::JointConfig cfg;
        cfg.placement_algorithm = placer;
        const auto result = nfv::core::JointOptimizer(cfg).run(
            model, static_cast<std::uint64_t>(seed) + run);
        if (!result.feasible) continue;
        const auto refined =
            nfv::core::refine_link_locality(model, result);
        before.add(refined.initial_link_cost);
        after.add(refined.final_link_cost);
        moves.add(static_cast<double>(refined.moves_applied));
      }
      const double reduction =
          before.mean() > 0.0
              ? 100.0 * (before.mean() - after.mean()) / before.mean()
              : 0.0;
      table.add_row({std::string(placer), before.mean(), after.mean(),
                     moves.mean(), reduction});
    }
    std::fputs(csv ? table.csv().c_str() : table.markdown().c_str(), stdout);
  }

  std::puts(
      "\nexpected: BFDSU tops utilization (randomized multi-start beats its\n"
      "deterministic core); RCKK beats KK-fwd decisively (reverse order is\n"
      "the load-balancing step) and matches budgeted CKK's W at ~1/408 of\n"
      "its work; locality refinement recovers most of the link cost that\n"
      "spreading placements (NAH/WFD) leave on the table.");
  return 0;
}
