// Machine-readable run reports: a stable JSON schema describing one whole
// pipeline run (placement summary, per-instance loads and response times,
// DES counters, serving counters, solver-race summary,
// metrics-registry snapshot).
//
// The obs library owns the schema, serialization, loading, pretty-printing
// and diffing; it knows nothing about the solver or serving types.  The
// core library provides the builder that converts a JointResult /
// SimResult into a RunReport (nfv/core/report_builder.h); the serve
// library writes its own section from its records' field lists
// (serve::report_section), so obs never sees the serve schema.
//
// Schema ("nfvpr.run_report/1"):
//
//   {
//     "schema": "nfvpr.run_report/1",
//     "command": "pipeline", "seed": 1,
//     "placement":  {feasible, algorithm, iterations, nodes_in_service,
//                    node_count, avg_utilization, occupation},
//     "scheduling": {algorithm, vnfs: [{vnf, instances, service_rate,
//                    delivery_prob, admitted, rejected, work,
//                    instance_load: [Λ_k...], instance_response: [W_k...]}]},
//     "requests":   {total, admitted, rejection_rate, avg_total_latency,
//                    avg_response},
//     "des":        {events, measured_window, generated, delivered,
//                    retransmissions, avg_utilization, mean_latency},
//     "serve":      {events, arrivals, admitted, ..., churn: {...},
//                    autoscale: {...}?, availability, ..., work,
//                    timeline: {...}?, events_log: [...]?}  (written by
//                    the serve library; DESIGN.md §9),
//     "solver":     {solver, winner, budget,
//                    backends: [{id, feasible, rejected, objective, work}]},
//     "metrics":    {counters: {...}, gauges: {...}, histograms: {...}}
//   }
//
// Absent sections are omitted, never emitted empty, so diffs across
// commands stay meaningful.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/obs/json.h"
#include "nfv/obs/metrics.h"

namespace nfv::obs {

inline constexpr std::string_view kRunReportSchema = "nfvpr.run_report/1";

struct PlacementSection {
  bool present = false;
  bool feasible = false;
  std::string algorithm;
  std::uint64_t iterations = 0;
  std::uint64_t nodes_in_service = 0;
  std::uint64_t node_count = 0;
  double avg_utilization = 0.0;
  double occupation = 0.0;
};

struct VnfScheduleEntry {
  std::string vnf;                       ///< catalog name, e.g. "FW-3"
  std::uint32_t instances = 0;           ///< M_f
  double service_rate = 0.0;             ///< μ_f
  double delivery_prob = 0.0;            ///< P
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t work = 0;                ///< algorithm work units
  std::vector<double> instance_load;     ///< Λ_k per instance (Eq. 7)
  std::vector<double> instance_response; ///< W(f,k) per instance (Eq. 12)
};

struct SchedulingSection {
  bool present = false;
  std::string algorithm;
  std::vector<VnfScheduleEntry> vnfs;
};

struct RequestSection {
  bool present = false;
  std::uint64_t total = 0;
  std::uint64_t admitted = 0;
  double rejection_rate = 0.0;
  double avg_total_latency = 0.0;  ///< Eq. 16 per admitted request
  double avg_response = 0.0;       ///< mean instance W (Eq. 15)
};

struct DesSection {
  bool present = false;
  std::uint64_t events = 0;
  double measured_window = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  double avg_utilization = 0.0;  ///< mean station utilization
  double mean_latency = 0.0;     ///< delivered-weighted end-to-end mean
};

struct MetricsSection {
  bool present = false;
  MetricsRegistry::Snapshot snapshot;
};

/// Writes the members of one section whose schema a library above obs
/// owns (the serve library's "serve" section); write_run_report opens and
/// closes the object around it.
using SectionWriter = std::function<void(JsonWriter&)>;

/// One backend's line in a solver portfolio race (DESIGN.md §17).
struct SolverBackendEntry {
  std::string id;  ///< "bfdsu" | "lp" | "pso"
  bool feasible = false;
  std::uint64_t rejected = 0;
  double objective = 0.0;  ///< Eq. 16 latency (node count for place races)
  std::uint64_t work = 0;  ///< placement iterations spent
};

/// Outcome of a --solver portfolio race (DESIGN.md §17).
struct SolverSection {
  bool present = false;
  std::string solver;  ///< requested id ("portfolio" or a single backend)
  std::string winner;  ///< backend the reported result came from
  std::uint64_t budget_work = 0;  ///< work units per backend; 0 = defaults
  std::vector<SolverBackendEntry> backends;  ///< in backend-id order
};

struct RunReport {
  std::string command;
  std::uint64_t seed = 0;
  PlacementSection placement;
  SchedulingSection scheduling;
  RequestSection requests;
  DesSection des;
  SectionWriter serve;  ///< written when set
  SolverSection solver;
  MetricsSection metrics;
};

/// Serializes a report under kRunReportSchema.
void write_run_report(const RunReport& report, std::ostream& os);

/// Parses a saved run report; throws std::invalid_argument on malformed
/// JSON or a missing/unknown "schema" field.
[[nodiscard]] JsonValue load_run_report(std::string_view text);

/// Human-readable summary of a loaded report.
[[nodiscard]] std::string pretty_print_report(const JsonValue& report);

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One numeric leaf that differs between two reports.
struct DiffEntry {
  std::string path;  ///< dotted path, e.g. "requests.avg_total_latency"
  double before = 0.0;
  double after = 0.0;
  double delta = 0.0;
  /// 100·(after−before)/|before|; ±inf when before == 0 and after != 0.
  double pct = 0.0;
  /// +1 when a higher value is worse (latency, drops, ...), −1 when a
  /// higher value is better (availability, admitted, ...), 0 when neutral.
  int direction = 0;
  /// True when the change exceeds the threshold in the worsening
  /// direction.
  bool regression = false;
  /// True when the change exceeds the threshold in the improving
  /// direction.
  bool improvement = false;
};

/// A leaf present on only one side of a diff, with its rendered value —
/// such metrics print as added/removed instead of being silently dropped.
struct LeafChange {
  std::string path;
  std::string value;  ///< rendered value on the side it exists on
};

struct ReportDiff {
  std::vector<DiffEntry> changed;        ///< numeric leaves that moved
  std::vector<std::string> only_before;  ///< paths absent from `after`
  std::vector<std::string> only_after;   ///< paths absent from `before`
  std::vector<LeafChange> removed;       ///< only_before, with values
  std::vector<LeafChange> added;         ///< only_after, with values
  /// Paths whose leaf is numeric in one report but not the other — a
  /// schema change, reported explicitly rather than dropped.
  std::vector<std::string> type_changed;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
};

/// Compares every numeric leaf of two reports.  `threshold_pct` is the
/// minimum |relative change| (percent) for a directional metric to count
/// as a regression/improvement.
[[nodiscard]] ReportDiff diff_reports(const JsonValue& before,
                                      const JsonValue& after,
                                      double threshold_pct = 1.0);

/// Markdown rendering of a diff: regressions first, then improvements,
/// then neutral changes; structural differences at the end.
[[nodiscard]] std::string render_diff(const ReportDiff& diff);

}  // namespace nfv::obs
