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
#include <limits>
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

/// How diff_reports judges a leaf that differs between two reports.  A leaf
/// whose path contains "wall" or "speedup" is a timing, judged against the
/// threshold in its direction; every other leaf is an answer, which must
/// not change at all.  Declared in the order render_diff prints them.
enum class DiffFlag {
  kChanged,     ///< an answer changed: any size, either direction
  kRegression,  ///< a timing worsened by at least the threshold
  kImproved,    ///< a timing improved by at least the threshold
  kNone,        ///< a timing that moved less than the threshold
};

/// One leaf present in both reports with different values.
struct DiffEntry {
  std::string path;    ///< dotted path, e.g. "rows[0].wall_us"
  std::string before;  ///< rendered value; strings are quoted
  std::string after;
  /// after−before and 100·(after−before)/|before| (±inf when before == 0)
  /// when the leaf is a number on both sides; NaN otherwise.
  double delta = std::numeric_limits<double>::quiet_NaN();
  double pct = std::numeric_limits<double>::quiet_NaN();
  DiffFlag flag = DiffFlag::kNone;
};

/// A leaf present in only one report, with its rendered value.  One-sided
/// leaves are listed but never fail a diff, so old reports still diff.
struct LeafChange {
  std::string path;
  std::string value;  ///< rendered value on the side it exists on
};

struct ReportDiff {
  std::vector<DiffEntry> changed;   ///< leaves on both sides that differ
  std::vector<LeafChange> removed;  ///< leaves only in `before`
  std::vector<LeafChange> added;    ///< leaves only in `after`
  std::size_t answers_changed = 0;
  std::size_t regressions = 0;
  std::size_t improvements = 0;

  /// An answer changed or a timing regressed.
  [[nodiscard]] bool failed() const {
    return answers_changed + regressions > 0;
  }
};

/// Compares every leaf of two reports.  Timing leaves ("wall" is
/// higher-worse, "speedup" higher-better) count as a regression or an
/// improvement when |relative change| reaches `threshold_pct` percent; any
/// other leaf that differs — number, bool or string, by any amount — is a
/// changed answer.  A timing leaf that is not a number on both sides is
/// compared as an answer.
[[nodiscard]] ReportDiff diff_reports(const JsonValue& before,
                                      const JsonValue& after,
                                      double threshold_pct = 1.0);

/// Markdown rendering of a diff: changed answers first, then timing
/// regressions, improvements and sub-threshold moves; one-sided leaves at
/// the end.
[[nodiscard]] std::string render_diff(const ReportDiff& diff);

}  // namespace nfv::obs
