// Machine-readable run reports: a stable JSON document describing one
// whole run of an nfvpr command.
//
// A report is an envelope plus an ordered list of named sections, each
// written straight to the JsonWriter by the library that owns its data:
//
//   {
//     "schema": "nfvpr.run_report/1",
//     "command": "pipeline", "seed": 1,
//     "placement": {...}, "scheduling": {...}, "requests": {...},
//     "des": {...}          (core: nfv/core/report_builder.h)
//     "serve": {...}        (serve: serve::report_section)
//     "solver": {...}       (core)
//     "metrics": {counters: {...}, gauges: {...}, histograms: {...}}
//   }
//
// obs writes only the envelope and the "metrics" snapshot of the registry
// it owns; the other schemas are documented next to their writers.
// Loading, rendering and diffing are schema-free walks over the parsed
// JSON, so they serve bench tables ("nfvpr.bench/1") too.  Absent
// sections are omitted, never emitted empty, so diffs across commands
// stay meaningful.
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

/// Writes the members of one section; write_run_report opens and closes
/// the object around it.
using SectionWriter = std::function<void(JsonWriter&)>;

/// One named section of a run report, written by the library that owns its
/// data.
struct ReportSection {
  std::string name;
  SectionWriter write;
};

struct RunReport {
  std::string command;
  std::uint64_t seed = 0;
  std::vector<ReportSection> sections;  ///< written in this order
};

/// The "metrics" section: the snapshot `registry` holds when the report is
/// written, so the registry must outlive the writer.
[[nodiscard]] ReportSection metrics_section(const MetricsRegistry& registry);

/// Serializes a report under kRunReportSchema.
void write_run_report(const RunReport& report, std::ostream& os);

/// Parses a saved run report; throws std::invalid_argument on malformed
/// JSON or a missing/unknown "schema" field.
[[nodiscard]] JsonValue load_run_report(std::string_view text);

/// Human-readable rendering of any loaded report, run report or bench
/// table: scalar members print as aligned `key : value` lines, nested
/// objects as indented headings (a blank line before each top-level one),
/// arrays of scalars inline, and an array of objects one `- k=v ...` line
/// per element.  Within an object the scalar lines come first; each group
/// is in key order.
[[nodiscard]] std::string pretty_print_report(const JsonValue& report);

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One numeric leaf that differs between two reports.
struct DiffEntry {
  std::string path;  ///< dotted path, e.g. "rows[0].wall_us"
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
