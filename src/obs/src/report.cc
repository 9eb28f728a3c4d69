#include "nfv/obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "nfv/common/error.h"

namespace nfv::obs {

ReportSection metrics_section(const MetricsRegistry& registry) {
  return {"metrics", [&registry](JsonWriter& w) {
            const MetricsRegistry::Snapshot snap = registry.snapshot();
            w.key("counters");
            w.begin_object();
            for (const auto& c : snap.counters) w.kv(c.name, c.value);
            w.end_object();
            w.key("gauges");
            w.begin_object();
            for (const auto& g : snap.gauges) w.kv(g.name, g.value);
            w.end_object();
            w.key("histograms");
            w.begin_object();
            for (const auto& h : snap.histograms) {
              w.key(h.name);
              w.begin_object();
              w.kv("count", h.count);
              w.kv("mean", h.mean);
              w.kv("min", h.min);
              w.kv("max", h.max);
              w.kv("p50", h.p50);
              w.kv("p90", h.p90);
              w.kv("p99", h.p99);
              w.end_object();
            }
            w.end_object();
          }};
}

void write_run_report(const RunReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kRunReportSchema);
  w.kv("command", report.command);
  w.kv("seed", report.seed);
  for (const ReportSection& section : report.sections) {
    w.key(section.name);
    w.begin_object();
    section.write(w);
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

JsonValue load_run_report(std::string_view text) {
  std::string error;
  auto doc = parse_json(text, &error);
  if (!doc) {
    throw std::invalid_argument("run report is not valid JSON: " + error);
  }
  if (!doc->is_object()) {
    throw std::invalid_argument("run report must be a JSON object");
  }
  const std::string schema = doc->string_or("schema");
  // Bench tables share the report tooling (pretty-print + regression
  // diff), so both schemas load here.
  if (schema != kRunReportSchema && schema != "nfvpr.bench/1") {
    throw std::invalid_argument(
        "unsupported run-report schema '" + schema + "' (expected '" +
        std::string(kRunReportSchema) + "' or 'nfvpr.bench/1')");
  }
  return std::move(*doc);
}

namespace {

std::string format_number(double v) {
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

std::string scalar_text(const JsonValue& v) {
  if (v.is_number()) return format_number(v.as_number());
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_string()) return v.as_string();
  return "null";
}

/// Objects, and arrays holding an object, print as blocks under a heading;
/// everything else fits on its key's line.
bool is_block(const JsonValue& v) {
  if (v.is_object()) return true;
  if (!v.is_array()) return false;
  const JsonValue::Array& items = v.as_array();
  return std::any_of(items.begin(), items.end(),
                     [](const JsonValue& item) { return item.is_object(); });
}

std::string inline_text(const JsonValue& v);

/// An object's members on one line: `k=v k=v ...`.
std::string members_text(const JsonValue::Object& members) {
  std::string out;
  for (const auto& [key, child] : members) {
    if (!out.empty()) out += ' ';
    out += key + "=" + inline_text(child);
  }
  return out;
}

std::string inline_text(const JsonValue& v) {
  if (v.is_object()) return "{" + members_text(v.as_object()) + "}";
  if (!v.is_array()) return scalar_text(v);
  std::string out;
  for (const JsonValue& item : v.as_array()) {
    out += (out.empty() ? "[" : ", ") + inline_text(item);
  }
  return out.empty() ? "[]" : out + "]";
}

/// Scalar members first, aligned, then one heading per block member.  The
/// parser caps nesting at 128, which bounds the recursion.
void render_object(const JsonValue::Object& members, std::size_t depth,
                   std::ostream& os) {
  const std::string pad(2 * depth, ' ');
  std::size_t width = 0;
  for (const auto& [key, child] : members) {
    if (!is_block(child)) width = std::max(width, key.size());
  }
  for (const auto& [key, child] : members) {
    if (is_block(child)) continue;
    os << pad << key << std::string(width - key.size(), ' ') << " : "
       << inline_text(child) << '\n';
  }
  for (const auto& [key, child] : members) {
    if (!is_block(child)) continue;
    os << (depth == 0 ? "\n" : "") << pad << key << '\n';
    if (child.is_object()) {
      render_object(child.as_object(), depth + 1, os);
      continue;
    }
    for (const JsonValue& item : child.as_array()) {
      os << pad << "  - "
         << (item.is_object() ? members_text(item.as_object())
                              : inline_text(item))
         << '\n';
    }
  }
}

}  // namespace

std::string pretty_print_report(const JsonValue& report) {
  std::ostringstream os;
  if (report.is_object()) render_object(report.as_object(), 0, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

namespace {

/// Metrics where a larger value signals a worse run.
constexpr std::string_view kHigherWorse[] = {
    "latency", "response", "rejection", "rejected", "shed",
    "retransmission", "occupation",
    "nodes_in_service", "queue_depth", "imbalance", "wall",     "work",
    "gap", "unaccounted", "queued", "retrying",
    "flaps", "instance_seconds", "objective",
};

/// Metrics where a larger value signals a better run.
constexpr std::string_view kHigherBetter[] = {
    "availability", "admitted", "delivered", "utilization",
};

int classify_direction(std::string_view path) {
  // Worse needles are checked first, so a key that matches both lists
  // counts as higher-worse: "shed" is the more specific signal in this
  // schema.
  for (const std::string_view needle : kHigherWorse) {
    if (path.find(needle) != std::string_view::npos) return +1;
  }
  for (const std::string_view needle : kHigherBetter) {
    if (path.find(needle) != std::string_view::npos) return -1;
  }
  return 0;
}

std::string leaf_repr(const JsonValue& v) {
  return v.is_string() ? "\"" + v.as_string() + "\"" : scalar_text(v);
}

void collect_leaves(const JsonValue& v, const std::string& path,
                    std::map<std::string, double>& numbers,
                    std::map<std::string, std::string>& reprs) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      collect_leaves(child, path.empty() ? key : path + "." + key, numbers,
                     reprs);
    }
    return;
  }
  if (v.is_array()) {
    const auto& arr = v.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      collect_leaves(arr[i], path + "[" + std::to_string(i) + "]", numbers,
                     reprs);
    }
    return;
  }
  reprs.emplace(path, leaf_repr(v));
  if (v.is_number()) numbers.emplace(path, v.as_number());
  if (v.is_bool()) numbers.emplace(path, v.as_bool() ? 1.0 : 0.0);
}

}  // namespace

ReportDiff diff_reports(const JsonValue& before, const JsonValue& after,
                        double threshold_pct) {
  NFV_REQUIRE(threshold_pct >= 0.0);
  std::map<std::string, double> before_nums;
  std::map<std::string, double> after_nums;
  std::map<std::string, std::string> before_reprs;
  std::map<std::string, std::string> after_reprs;
  collect_leaves(before, "", before_nums, before_reprs);
  collect_leaves(after, "", after_nums, after_reprs);

  ReportDiff diff;
  for (const auto& [p, repr] : before_reprs) {
    if (after_reprs.find(p) == after_reprs.end()) {
      diff.only_before.push_back(p);
      diff.removed.push_back({p, repr});
    } else if (before_nums.count(p) != after_nums.count(p)) {
      // Numeric on exactly one side: a type change, not a value change —
      // without this, such leaves would vanish from the diff entirely.
      diff.type_changed.push_back(p);
    }
  }
  for (const auto& [p, repr] : after_reprs) {
    if (before_reprs.find(p) == before_reprs.end()) {
      diff.only_after.push_back(p);
      diff.added.push_back({p, repr});
    }
  }

  for (const auto& [path, b] : before_nums) {
    const auto it = after_nums.find(path);
    if (it == after_nums.end()) continue;
    const double a = it->second;
    if (a == b) continue;
    DiffEntry e;
    e.path = path;
    e.before = b;
    e.after = a;
    e.delta = a - b;
    e.pct = b != 0.0
                ? 100.0 * (a - b) / std::abs(b)
                : (a > 0.0 ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity());
    e.direction = classify_direction(path);
    const bool significant = std::abs(e.pct) >= threshold_pct;
    if (e.direction != 0 && significant) {
      const bool worse = (e.delta > 0.0) == (e.direction > 0);
      e.regression = worse;
      e.improvement = !worse;
    }
    if (e.regression) ++diff.regressions;
    if (e.improvement) ++diff.improvements;
    diff.changed.push_back(std::move(e));
  }

  // Regressions first (largest |pct| first), then improvements, then
  // neutral changes — the order render_diff prints them in.
  std::stable_sort(diff.changed.begin(), diff.changed.end(),
                   [](const DiffEntry& x, const DiffEntry& y) {
                     const auto rank = [](const DiffEntry& e) {
                       if (e.regression) return 0;
                       if (e.improvement) return 1;
                       return 2;
                     };
                     if (rank(x) != rank(y)) return rank(x) < rank(y);
                     return std::abs(x.pct) > std::abs(y.pct);
                   });
  return diff;
}

std::string render_diff(const ReportDiff& diff) {
  std::ostringstream os;
  if (diff.changed.empty() && diff.only_before.empty() &&
      diff.only_after.empty() && diff.type_changed.empty()) {
    os << "reports are identical\n";
    return os.str();
  }
  os << diff.changed.size() << " metrics changed, " << diff.regressions
     << " regressions, " << diff.improvements << " improvements";
  if (!diff.added.empty() || !diff.removed.empty()) {
    os << ", " << diff.added.size() << " added, " << diff.removed.size()
       << " removed";
  }
  os << "\n\n";
  os << "| metric | before | after | delta | change | flag |\n";
  os << "|---|---|---|---|---|---|\n";
  for (const DiffEntry& e : diff.changed) {
    char pct[32];
    if (std::isfinite(e.pct)) {
      std::snprintf(pct, sizeof pct, "%+.2f%%", e.pct);
    } else {
      std::snprintf(pct, sizeof pct, "%s", e.pct > 0 ? "+inf" : "-inf");
    }
    os << "| " << e.path << " | " << format_number(e.before) << " | "
       << format_number(e.after) << " | " << format_number(e.delta) << " | "
       << pct << " | "
       << (e.regression ? "REGRESSION" : (e.improvement ? "improved" : ""))
       << " |\n";
  }
  for (const LeafChange& c : diff.removed) {
    os << "only in baseline: " << c.path << " = " << c.value << " (removed)\n";
  }
  for (const LeafChange& c : diff.added) {
    os << "only in current:  " << c.path << " = " << c.value << " (added)\n";
  }
  for (const std::string& p : diff.type_changed) {
    os << "type changed:     " << p << "\n";
  }
  return os.str();
}

}  // namespace nfv::obs
