#include "nfv/core/report_builder.h"

#include "nfv/common/error.h"

namespace nfv::core {

namespace {

void fill_placement(const ReportInputs& in, obs::PlacementSection& out) {
  const JointResult& r = *in.result;
  out.present = true;
  out.feasible = r.placement.feasible;
  out.algorithm = in.placement_algorithm;
  out.iterations = r.placement.iterations;
  out.nodes_in_service = r.placement_metrics.nodes_in_service;
  out.node_count = in.model->topology.compute_count();
  out.avg_utilization = r.placement_metrics.avg_utilization_of_used;
  out.occupation = r.placement_metrics.resource_occupation;
}

void fill_scheduling(const ReportInputs& in, obs::SchedulingSection& out) {
  const JointResult& r = *in.result;
  if (r.admissions.empty()) return;
  out.present = true;
  out.algorithm = in.scheduling_algorithm;
  out.vnfs.reserve(r.contexts.size());
  for (std::size_t f = 0; f < r.contexts.size(); ++f) {
    const VnfSchedulingContext& ctx = r.contexts[f];
    const sched::AdmissionResult& admission = r.admissions[f];
    obs::VnfScheduleEntry entry;
    entry.vnf = in.model->workload.vnfs[f].name;
    entry.instances = ctx.problem.instance_count;
    entry.service_rate = ctx.problem.service_rate;
    entry.delivery_prob = ctx.problem.delivery_prob;
    entry.rejected = admission.rejected_count;
    entry.admitted = ctx.problem.request_count() - admission.rejected_count;
    entry.work = r.schedules[f].work;
    // Λ_k per instance (Eq. 7, post-admission) and the matching W(f,k).
    const auto& m = admission.admitted_metrics;
    entry.instance_load = m.instance_effective_load;
    entry.instance_response.reserve(m.instance_load.size());
    const double mu_eff =
        ctx.problem.delivery_prob * ctx.problem.service_rate;
    for (const double load : m.instance_load) {
      entry.instance_response.push_back(
          load < mu_eff ? 1.0 / (mu_eff - load) : -1.0);
    }
    out.vnfs.push_back(std::move(entry));
  }
}

void fill_requests(const ReportInputs& in, obs::RequestSection& out) {
  const JointResult& r = *in.result;
  if (r.requests.empty()) return;
  out.present = true;
  out.total = r.requests.size();
  out.admitted = static_cast<std::uint64_t>(
      std::count_if(r.requests.begin(), r.requests.end(),
                    [](const RequestOutcome& o) { return o.admitted; }));
  out.rejection_rate = r.job_rejection_rate;
  out.avg_total_latency = r.avg_total_latency;
  out.avg_response = r.avg_response;
}

void fill_des(const sim::SimResult& sim, obs::DesSection& out) {
  out.present = true;
  out.events = sim.events_processed;
  out.measured_window = sim.measured_window;
  double latency_weighted = 0.0;
  double utilization = 0.0;
  for (const sim::FlowResult& f : sim.flows) {
    out.generated += f.generated;
    out.delivered += f.delivered;
    out.retransmissions += f.retransmissions;
    latency_weighted +=
        f.end_to_end.mean() * static_cast<double>(f.delivered);
  }
  for (const sim::StationResult& s : sim.stations) {
    utilization += s.utilization;
  }
  if (!sim.stations.empty()) {
    out.avg_utilization =
        utilization / static_cast<double>(sim.stations.size());
  }
  if (out.delivered > 0) {
    out.mean_latency = latency_weighted / static_cast<double>(out.delivered);
  }
}

void fill_solver(const ReportInputs& in, obs::SolverSection& out) {
  const SolverOutcome& s = *in.solver;
  out.present = true;
  out.solver = in.solver_id;
  out.winner = s.winner;
  out.budget_work = s.budget_work;
  out.backends.reserve(s.backends.size());
  for (const BackendRun& b : s.backends) {
    obs::SolverBackendEntry e;
    e.id = b.id;
    e.feasible = b.feasible;
    e.rejected = b.rejected;
    e.objective = b.objective;
    e.work = b.work;
    out.backends.push_back(std::move(e));
  }
}

}  // namespace

obs::RunReport build_run_report(const ReportInputs& inputs) {
  obs::RunReport report;
  report.command = inputs.command;
  report.seed = inputs.seed;
  if (inputs.result != nullptr) {
    NFV_REQUIRE(inputs.model != nullptr);
    fill_placement(inputs, report.placement);
    fill_scheduling(inputs, report.scheduling);
    fill_requests(inputs, report.requests);
  }
  if (inputs.sim != nullptr) fill_des(*inputs.sim, report.des);
  report.serve = inputs.serve;
  if (inputs.solver != nullptr) fill_solver(inputs, report.solver);
  if (inputs.metrics != nullptr) {
    report.metrics.present = true;
    report.metrics.snapshot = inputs.metrics->snapshot();
  }
  return report;
}

}  // namespace nfv::core
