#include "nfv/core/report_builder.h"

#include <algorithm>

#include "nfv/common/error.h"

namespace nfv::core {

namespace {

void write_placement(const ReportInputs& in, obs::JsonWriter& w) {
  const JointResult& r = *in.result;
  w.kv("feasible", r.placement.feasible);
  w.kv("algorithm", in.placement_algorithm);
  w.kv("iterations", std::uint64_t{r.placement.iterations});
  w.kv("nodes_in_service",
       std::uint64_t{r.placement_metrics.nodes_in_service});
  w.kv("node_count", std::uint64_t{in.model->topology.compute_count()});
  w.kv("avg_utilization", r.placement_metrics.avg_utilization_of_used);
  w.kv("occupation", r.placement_metrics.resource_occupation);
}

void write_scheduling(const ReportInputs& in, obs::JsonWriter& w) {
  const JointResult& r = *in.result;
  w.kv("algorithm", in.scheduling_algorithm);
  w.key("vnfs");
  w.begin_array();
  for (std::size_t f = 0; f < r.contexts.size(); ++f) {
    const sched::SchedulingProblem& problem = r.contexts[f].problem;
    const sched::AdmissionResult& admission = r.admissions[f];
    w.begin_object();
    w.kv("vnf", in.model->workload.vnfs[f].name);
    w.kv("instances", std::uint64_t{problem.instance_count});
    w.kv("service_rate", problem.service_rate);
    w.kv("delivery_prob", problem.delivery_prob);
    w.kv("admitted", std::uint64_t{problem.request_count() -
                                   admission.rejected_count});
    w.kv("rejected", std::uint64_t{admission.rejected_count});
    w.kv("work", std::uint64_t{r.schedules[f].work});
    // Λ_k per instance (Eq. 7, post-admission) and the matching W(f,k).
    const auto& m = admission.admitted_metrics;
    w.key("instance_load");
    w.begin_array();
    for (const double load : m.instance_effective_load) w.value(load);
    w.end_array();
    const double mu_eff = problem.delivery_prob * problem.service_rate;
    w.key("instance_response");
    w.begin_array();
    for (const double load : m.instance_load) {
      w.value(load < mu_eff ? 1.0 / (mu_eff - load) : -1.0);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void write_requests(const JointResult& r, obs::JsonWriter& w) {
  w.kv("total", std::uint64_t{r.requests.size()});
  w.kv("admitted", static_cast<std::uint64_t>(std::count_if(
                       r.requests.begin(), r.requests.end(),
                       [](const RequestOutcome& o) { return o.admitted; })));
  w.kv("rejection_rate", r.job_rejection_rate);
  w.kv("avg_total_latency", r.avg_total_latency);
  w.kv("avg_response", r.avg_response);
}

void write_des(const sim::SimResult& sim, obs::JsonWriter& w) {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  double latency_weighted = 0.0;
  for (const sim::FlowResult& f : sim.flows) {
    generated += f.generated;
    delivered += f.delivered;
    retransmissions += f.retransmissions;
    latency_weighted +=
        f.end_to_end.mean() * static_cast<double>(f.delivered);
  }
  double utilization = 0.0;
  for (const sim::StationResult& s : sim.stations) {
    utilization += s.utilization;
  }
  w.kv("events", std::uint64_t{sim.events_processed});
  w.kv("measured_window", sim.measured_window);
  w.kv("generated", generated);
  w.kv("delivered", delivered);
  w.kv("retransmissions", retransmissions);
  // Mean station utilization and the delivered-weighted end-to-end mean.
  w.kv("avg_utilization",
       sim.stations.empty()
           ? 0.0
           : utilization / static_cast<double>(sim.stations.size()));
  w.kv("mean_latency", delivered > 0 ? latency_weighted /
                                           static_cast<double>(delivered)
                                     : 0.0);
}

void write_solver(const ReportInputs& in, obs::JsonWriter& w) {
  const SolverOutcome& s = *in.solver;
  w.kv("solver", in.solver_id);
  w.kv("winner", s.winner);
  w.kv("budget", std::uint64_t{s.budget_work});
  w.key("backends");
  w.begin_array();
  for (const BackendRun& b : s.backends) {  // in backend-id order
    w.begin_object();
    w.kv("id", b.id);
    w.kv("feasible", b.feasible);
    w.kv("rejected", std::uint64_t{b.rejected});
    w.kv("objective", b.objective);  // Eq. 16 (node count for place)
    w.kv("work", std::uint64_t{b.work});
    w.end_object();
  }
  w.end_array();
}

}  // namespace

obs::RunReport build_run_report(const ReportInputs& inputs) {
  obs::RunReport report;
  report.command = inputs.command;
  report.seed = inputs.seed;
  auto& sections = report.sections;
  if (const JointResult* r = inputs.result; r != nullptr) {
    NFV_REQUIRE(inputs.model != nullptr);
    sections.push_back({"placement", [inputs](obs::JsonWriter& w) {
                          write_placement(inputs, w);
                        }});
    if (!r->admissions.empty()) {
      sections.push_back({"scheduling", [inputs](obs::JsonWriter& w) {
                            write_scheduling(inputs, w);
                          }});
    }
    if (!r->requests.empty()) {
      sections.push_back(
          {"requests", [r](obs::JsonWriter& w) { write_requests(*r, w); }});
    }
  }
  if (const sim::SimResult* sim = inputs.sim; sim != nullptr) {
    sections.push_back(
        {"des", [sim](obs::JsonWriter& w) { write_des(*sim, w); }});
  }
  if (inputs.serve) sections.push_back({"serve", inputs.serve});
  if (inputs.solver != nullptr) {
    sections.push_back({"solver", [inputs](obs::JsonWriter& w) {
                          write_solver(inputs, w);
                        }});
  }
  if (inputs.metrics != nullptr) {
    sections.push_back(obs::metrics_section(*inputs.metrics));
  }
  return report;
}

}  // namespace nfv::core
