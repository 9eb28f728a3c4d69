#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "nfv/common/error.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/json.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/trace.h"

namespace nfv::bench {

void scale_workload_demand(workload::Workload& w, double target_total,
                           double max_piece) {
  NFV_REQUIRE(target_total > 0.0);
  NFV_REQUIRE(max_piece > 0.0);
  const double current = w.total_demand();
  NFV_REQUIRE(current > 0.0);
  const double factor = target_total / current;
  for (auto& f : w.vnfs) {
    f.demand_per_instance *= factor;
    const double footprint = f.total_demand();
    if (footprint > max_piece) {
      f.demand_per_instance = max_piece / static_cast<double>(f.instance_count);
    }
  }
}

PlacementSummary run_placement(const PlacementScenario& scenario,
                               std::string_view algorithm) {
  const auto algo = placement::make_placement_algorithm(algorithm);
  NFV_REQUIRE(algo != nullptr);
  struct RunResult {
    bool feasible = false;
    placement::PlacementMetrics metrics;
    std::uint64_t iterations = 0;
  };
  const exec::LocalPool pool(scenario.threads);
  // Each run seeds its own Rng, so replications are independent; the fold
  // below consumes them in run order, keeping summaries bit-identical to
  // the serial loop for any thread count.
  const std::vector<RunResult> runs =
      exec::parallel_map(scenario.runs, [&](std::size_t run) {
    RunResult out;
    Rng rng(scenario.base_seed + run);
    const auto topology = topo::make_star(
        scenario.nodes,
        topo::CapacitySpec{scenario.capacity_min, scenario.capacity_max},
        topo::LinkSpec{}, rng);
    workload::WorkloadConfig cfg;
    cfg.vnf_count = scenario.vnfs;
    cfg.request_count = scenario.requests;
    // Trace-driven regime: a datacenter offers a bounded set of service
    // chain types (this is what keeps NAH's per-chain cost near the
    // paper's Fig. 10 scale).
    cfg.chain_template_count = 32;
    workload::Workload w = workload::WorkloadGenerator(cfg).generate(rng);
    // Pin the offered load so sweeps vary only the intended axis; cap each
    // footprint just under the largest node so single-piece fits exist.
    double max_capacity = 0.0;
    for (const NodeId v : topology.nodes()) {
      max_capacity = std::max(max_capacity, topology.capacity(v));
    }
    const double target =
        scenario.load_factor * topology.total_capacity();
    if (scenario.uniform_demands) {
      // Redraw footprints around the mean piece size; the scale call below
      // renormalizes them to hit the target exactly.
      const double mean_piece = target / static_cast<double>(w.vnfs.size());
      for (auto& f : w.vnfs) {
        const double footprint =
            mean_piece * rng.uniform(1.0 - scenario.demand_spread,
                                     1.0 + scenario.demand_spread);
        f.demand_per_instance =
            footprint / static_cast<double>(f.instance_count);
      }
    }
    scale_workload_demand(w, target, 0.9 * max_capacity);
    const placement::PlacementProblem problem =
        placement::make_problem(topology, w);
    const placement::Placement result = algo->place(problem, rng);
    if (!result.feasible) return out;
    out.feasible = true;
    out.metrics = placement::evaluate(problem, result);
    out.iterations = result.iterations;
    return out;
  });
  PlacementSummary summary;
  OnlineStats util;
  OnlineStats nodes;
  OnlineStats occupation;
  OnlineStats iterations;
  for (const RunResult& r : runs) {
    if (!r.feasible) continue;
    util.add(r.metrics.avg_utilization_of_used);
    nodes.add(static_cast<double>(r.metrics.nodes_in_service));
    occupation.add(r.metrics.resource_occupation);
    iterations.add(static_cast<double>(r.iterations));
    ++summary.feasible_runs;
  }
  summary.avg_utilization = util.mean();
  summary.nodes_in_service = nodes.mean();
  summary.occupation = occupation.mean();
  summary.iterations = iterations.mean();
  return summary;
}

SchedulingSummary run_scheduling(const SchedulingScenario& scenario,
                                 std::string_view algorithm) {
  const auto algo = sched::make_scheduling_algorithm(algorithm);
  NFV_REQUIRE(algo != nullptr);
  const workload::LognormalTraceSampler trace_sampler(
      {0.04, scenario.rate_sigma_log > 0.0 ? scenario.rate_sigma_log : 1.0,
       scenario.arrival_min, scenario.arrival_max});
  struct RunResult {
    double response = 0.0;
    double rejection = 0.0;
    double imbalance = 0.0;
    double work = 0.0;
    bool stable = false;
  };
  const exec::LocalPool pool(scenario.threads);
  const std::vector<RunResult> results =
      exec::parallel_map(scenario.runs, [&](std::size_t run) {
    Rng rng(scenario.base_seed + run);
    sched::SchedulingProblem p;
    double total = 0.0;
    for (std::size_t i = 0; i < scenario.requests; ++i) {
      p.arrival_rates.push_back(
          scenario.rate_sigma_log > 0.0
              ? trace_sampler.sample_rate(rng)
              : rng.uniform(scenario.arrival_min, scenario.arrival_max));
      total += p.arrival_rates.back();
    }
    p.instance_count = scenario.instances;
    p.delivery_prob = scenario.delivery_prob;
    p.service_rate =
        scenario.service_rate_override > 0.0
            ? scenario.service_rate_override
            : scenario.headroom * total /
                  static_cast<double>(scenario.instances);
    const sched::Schedule schedule = algo->schedule(p, rng);
    const sched::ScheduleMetrics raw = sched::evaluate(p, schedule);
    const sched::AdmissionResult admission =
        sched::apply_admission(p, schedule, scenario.rho_max);
    // W is measured on the admitted traffic (what the instances actually
    // carry); with stable raw schedules the two coincide.
    return RunResult{admission.admitted_metrics.avg_response,
                     admission.rejection_rate, raw.imbalance,
                     static_cast<double>(schedule.work), raw.stable};
  });
  SchedulingSummary summary;
  OnlineStats response;
  SampleSet response_samples;
  OnlineStats rejection;
  OnlineStats imbalance;
  OnlineStats work;
  for (const RunResult& r : results) {
    response.add(r.response);
    response_samples.add(r.response);
    rejection.add(r.rejection);
    imbalance.add(r.imbalance);
    work.add(r.work);
    if (r.stable) ++summary.stable_runs;
  }
  summary.avg_response = response.mean();
  summary.p99_response = response_samples.p99();
  summary.rejection_rate = rejection.mean();
  summary.imbalance = imbalance.mean();
  summary.work = work.mean();
  return summary;
}

JointSummary run_joint(const JointScenario& scenario,
                       std::string_view placement_algorithm,
                       std::string_view scheduling_algorithm) {
  core::JointConfig cfg;
  cfg.placement_algorithm = std::string(placement_algorithm);
  cfg.scheduling_algorithm = std::string(scheduling_algorithm);
  cfg.link_latency = scenario.link_latency;
  const core::JointOptimizer optimizer(cfg);
  struct RunResult {
    bool feasible = false;
    double total_latency = 0.0;
    double response = 0.0;
    double link = 0.0;
    double rejection = 0.0;
    double nodes = 0.0;
  };
  const exec::LocalPool pool(scenario.threads);
  const std::vector<RunResult> results =
      exec::parallel_map(scenario.runs, [&](std::size_t run) {
    RunResult out;
    Rng rng(scenario.base_seed + run);
    core::SystemModel model;
    model.topology = topo::make_star(
        scenario.nodes,
        topo::CapacitySpec{scenario.capacity_min, scenario.capacity_max},
        topo::LinkSpec{scenario.link_latency}, rng);
    workload::WorkloadConfig wcfg;
    wcfg.vnf_count = scenario.vnfs;
    wcfg.request_count = scenario.requests;
    wcfg.service_headroom = scenario.service_headroom;
    wcfg.requests_per_instance = scenario.requests_per_instance;
    wcfg.chain_template_count = 32;
    model.workload = workload::WorkloadGenerator(wcfg).generate(rng);
    double max_capacity = 0.0;
    for (const NodeId v : model.topology.nodes()) {
      max_capacity = std::max(max_capacity, model.topology.capacity(v));
    }
    scale_workload_demand(model.workload,
                          0.55 * model.topology.total_capacity(),
                          0.9 * max_capacity);
    const core::JointResult result =
        optimizer.run(model, scenario.base_seed + run);
    if (!result.feasible) return out;
    double link_sum = 0.0;
    std::size_t admitted = 0;
    for (const auto& r : result.requests) {
      if (r.admitted) {
        link_sum += r.link_latency;
        ++admitted;
      }
    }
    out.feasible = true;
    out.total_latency = result.avg_total_latency;
    out.response = result.avg_response;
    out.link = admitted > 0 ? link_sum / static_cast<double>(admitted) : 0.0;
    out.rejection = result.job_rejection_rate;
    out.nodes = static_cast<double>(result.placement_metrics.nodes_in_service);
    return out;
  });
  JointSummary summary;
  OnlineStats total_latency;
  OnlineStats response;
  OnlineStats link;
  OnlineStats rejection;
  OnlineStats nodes;
  for (const RunResult& r : results) {
    if (!r.feasible) continue;
    total_latency.add(r.total_latency);
    response.add(r.response);
    link.add(r.link);
    rejection.add(r.rejection);
    nodes.add(r.nodes);
    ++summary.feasible_runs;
  }
  summary.avg_total_latency = total_latency.mean();
  summary.avg_response = response.mean();
  summary.avg_link_latency = link.mean();
  summary.rejection_rate = rejection.mean();
  summary.nodes_in_service = nodes.mean();
  return summary;
}

void warm_up_cores(std::uint32_t threads) {
  if (threads <= 1) return;
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<std::thread> spinners;
  for (std::uint32_t t = 0; t < threads; ++t) {
    spinners.emplace_back([until] {
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

void print_banner(std::string_view figure, std::string_view description) {
  std::printf("\n=== %.*s ===\n%.*s\n\n",
              static_cast<int>(figure.size()), figure.data(),
              static_cast<int>(description.size()), description.data());
}

double enhancement_percent(double baseline, double ours) {
  if (baseline <= 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

void write_table_json(const Table& table, std::string_view bench,
                      const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open --json output " + path);
  }
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "nfvpr.bench/1");
  w.kv("bench", bench);
  w.key("rows");
  w.begin_array();
  for (std::size_t r = 0; r < table.rows(); ++r) {
    w.begin_object();
    for (std::size_t c = 0; c < table.columns(); ++c) {
      w.key(table.header(c));
      const Cell& cell = table.at(r, c);
      if (const auto* s = std::get_if<std::string>(&cell)) {
        w.value(*s);
      } else if (const auto* i = std::get_if<long long>(&cell)) {
        w.value(static_cast<std::int64_t>(*i));
      } else {
        w.value(std::get<double>(cell));
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace nfv::bench
