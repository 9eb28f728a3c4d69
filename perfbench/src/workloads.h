// The three benchmark workloads and the metric names they report.
//
//   crowd   — serve, several hundred live requests, no churn, telemetry off
//   churn   — serve, ~40 live requests, node churn, autoscale, telemetry on
//   offline — portfolio solves of a Sec. V-A Monte-Carlo batch
//
// perfbench/README.md explains why each exists and which layer metric
// should move which end-to-end metric on which workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every workload in an untraced run (--trace 0).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every workload in a traced run (--trace 1); a layer the
/// workload does not exercise reports 0 with 0 samples.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  ///< failed self-checks, one per line
  std::vector<std::string> context;   ///< "key: value" lines for the log
  SpanRecorder spans;                 ///< empty unless traced
};

[[nodiscard]] RunResult run_crowd(const RunOptions& options);
[[nodiscard]] RunResult run_churn(const RunOptions& options);
[[nodiscard]] RunResult run_offline(const RunOptions& options);

}  // namespace perfbench
