// Validation bench: the packet-level discrete-event simulator against the
// paper's Jackson/M/M/1 analytics — per-load-level M/M/1 agreement, the
// Fig. 3 loss-feedback chain, and a full pipeline instance end to end.
#include <cstdio>

#include "harness.h"
#include "nfv/common/cli.h"
#include "nfv/common/table.h"
#include "nfv/core/sim_builder.h"
#include "nfv/queueing/mm1.h"
#include "nfv/sim/des.h"
#include "nfv/topology/builders.h"

int main(int argc, char** argv) {
  nfv::CliParser cli("bench_des_validation",
                     "Discrete-event simulation vs. analytic model");
  const auto& duration = cli.add_double("duration", 'd',
                                        "simulated seconds per point", 2000.0);
  const auto& seed = cli.add_int("seed", 's', "RNG seed", 99);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  nfv::bench::print_banner(
      "DES validation 1 — M/M/1 closed forms",
      "Single queue, μ = 10; W = 1/(μ−λ) and ρ = λ/μ vs. simulation.");
  {
    nfv::Table table({"rho", "W analytic", "W simulated", "err %",
                      "util analytic", "util simulated"});
    table.set_precision(4);
    for (const double lambda : {1.0, 3.0, 5.0, 7.0, 9.0}) {
      nfv::sim::SimConfig cfg;
      cfg.duration = duration;
      cfg.warmup = duration * 0.1;
      cfg.seed = static_cast<std::uint64_t>(seed);
      const auto r = nfv::sim::simulate_mm1(lambda, 10.0, cfg);
      const double w = nfv::queueing::mm1_mean_response(lambda, 10.0);
      table.add_row({lambda / 10.0, w, r.stations[0].response.mean(),
                     100.0 * (r.stations[0].response.mean() - w) / w,
                     lambda / 10.0, r.stations[0].utilization});
    }
    std::fputs(table.markdown().c_str(), stdout);
  }

  nfv::bench::print_banner(
      "DES validation 2 — Fig. 3 loss-feedback chain",
      "Two VNFs (μ = 15, 12), λ0 = 4; per-attempt NACK feedback.  Paper\n"
      "closed form: E[T] = Σ 1/(P·μ_i − λ0).");
  {
    nfv::Table table({"P", "E[T] analytic", "E[T] simulated", "err %",
                      "station rate λ0/P"});
    table.set_precision(4);
    for (const double p : {1.0, 0.99, 0.95, 0.9, 0.8}) {
      nfv::sim::SimNetwork net;
      net.stations = {nfv::sim::Station{15.0}, nfv::sim::Station{12.0}};
      nfv::sim::Flow flow;
      flow.rate = 4.0;
      flow.delivery_prob = p;
      flow.path = {0, 1};
      net.flows.push_back(flow);
      nfv::sim::SimConfig cfg;
      cfg.duration = duration;
      cfg.warmup = duration * 0.1;
      cfg.seed = static_cast<std::uint64_t>(seed);
      const auto r = nfv::sim::simulate(net, cfg);
      const double expected =
          1.0 / (p * 15.0 - 4.0) + 1.0 / (p * 12.0 - 4.0);
      const double measured = r.flows[0].end_to_end.mean();
      table.add_row({p, expected, measured,
                     100.0 * (measured - expected) / expected,
                     r.stations[0].arrival_rate});
    }
    std::fputs(table.markdown().c_str(), stdout);
  }

  nfv::bench::print_banner(
      "DES validation 3 — full pipeline instance",
      "BFDSU+RCKK on 8 nodes / 10 VNFs / 80 requests; analytic Eq. 12 per\n"
      "instance vs. measured station response (visit-weighted means).");
  {
    nfv::Rng rng(static_cast<std::uint64_t>(seed));
    nfv::core::SystemModel model;
    model.topology = nfv::topo::make_star(
        8, nfv::topo::CapacitySpec{2000.0, 5000.0}, nfv::topo::LinkSpec{1e-4},
        rng);
    nfv::workload::WorkloadConfig wcfg;
    wcfg.vnf_count = 10;
    wcfg.request_count = 80;
    model.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
    const nfv::core::JointResult result =
        nfv::core::JointOptimizer{nfv::core::JointConfig{}}.run(
            model, static_cast<std::uint64_t>(seed));
    if (!result.feasible) {
      std::puts("pipeline infeasible for this seed — rerun with --seed");
      return 1;
    }
    const auto out = nfv::core::build_sim_network(model, result);
    nfv::sim::SimConfig cfg;
    cfg.duration = duration * 0.2;
    cfg.warmup = duration * 0.02;
    cfg.seed = static_cast<std::uint64_t>(seed) + 1;
    const auto sim_result = nfv::sim::simulate(out.network, cfg);
    double analytic_weighted = 0.0;
    double measured_weighted = 0.0;
    double weight = 0.0;
    for (std::size_t f = 0; f < model.workload.vnfs.size(); ++f) {
      const auto& ctx = result.contexts[f];
      for (std::uint32_t k = 0; k < ctx.problem.instance_count; ++k) {
        const auto& sr = sim_result.stations[out.index_map.base[f] + k];
        if (sr.visits < 100) continue;
        const double eff =
            result.admissions[f].admitted_metrics.instance_load[k] /
            ctx.problem.delivery_prob;
        const double w = static_cast<double>(sr.visits);
        analytic_weighted += w / (ctx.problem.service_rate - eff);
        measured_weighted += w * sr.response.mean();
        weight += w;
      }
    }
    std::printf(
        "instance-level mean response: analytic %.6f vs simulated %.6f "
        "(err %.1f%%)\n",
        analytic_weighted / weight, measured_weighted / weight,
        100.0 * (measured_weighted - analytic_weighted) / analytic_weighted);
  }
  return 0;
}
