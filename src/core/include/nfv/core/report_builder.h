// Bridges the solver types to the obs run-report schema: converts a
// JointResult (and optionally a SimResult, a solver race and the live
// metrics registry) into an obs::RunReport ready for obs::write_run_report,
// and passes the serve section's writer through as the serve library
// supplied it.  Lives in core — obs stays a leaf library that knows nothing
// about placement/scheduling/sim/serve types.
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

/// Builds the report; sections with null inputs are marked absent.
[[nodiscard]] obs::RunReport build_run_report(const ReportInputs& inputs);

}  // namespace nfv::core
