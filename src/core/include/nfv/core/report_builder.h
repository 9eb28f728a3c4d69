// Writes the run-report sections whose data the solver types own and
// assembles the obs::RunReport envelope around them.  Lives in core — obs
// stays a leaf library that knows nothing about placement/scheduling/sim/
// serve types.  The sections, in report order:
//
//   "placement":  {feasible, algorithm, iterations, nodes_in_service,
//                  node_count, avg_utilization, occupation}
//   "scheduling": {algorithm, vnfs: [{vnf, instances, service_rate,
//                  delivery_prob, admitted, rejected, work,
//                  instance_load: [Λ_k...], instance_response: [W_k...]}]}
//   "requests":   {total, admitted, rejection_rate, avg_total_latency,
//                  avg_response}
//   "des":        {events, measured_window, generated, delivered,
//                  retransmissions, avg_utilization, mean_latency}
//   "serve":      the serve library's writer, passed through unopened
//   "solver":     {solver, winner, budget,
//                  backends: [{id, feasible, rejected, objective, work}]}
//   "metrics":    obs::metrics_section of the registry
#pragma once

#include <cstdint>
#include <string>

#include "nfv/core/joint_optimizer.h"
#include "nfv/core/solver.h"
#include "nfv/obs/report.h"
#include "nfv/sim/des.h"

namespace nfv::core {

/// Everything a run report can describe; leave pointers null (and `serve`
/// empty) for sections that do not apply to the command.
struct ReportInputs {
  std::string command;             ///< nfvpr subcommand ("pipeline", ...)
  std::uint64_t seed = 0;
  std::string placement_algorithm;
  std::string scheduling_algorithm;
  const SystemModel* model = nullptr;       ///< required with `result`
  const JointResult* result = nullptr;      ///< placement + scheduling
  const sim::SimResult* sim = nullptr;      ///< DES section
  /// The serving section's writer (serve::report_section); the serve
  /// library owns that schema, so it is passed through unopened.
  obs::SectionWriter serve;
  /// Solver portfolio race (DESIGN.md §17); non-null when --solver was
  /// given, along with the requested solver id for the section header.
  const SolverOutcome* solver = nullptr;
  std::string solver_id;
  const obs::MetricsRegistry* metrics = nullptr;  ///< registry snapshot
};

/// The report of one run: a section per non-null input (scheduling and
/// requests only when `result` carries them).  The writers read the
/// pointed-to inputs when the report is written, so those must outlive it.
[[nodiscard]] obs::RunReport build_run_report(const ReportInputs& inputs);

}  // namespace nfv::core
