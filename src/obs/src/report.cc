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

/// +1 for a wall-clock leaf (higher is worse), -1 for a speedup (higher is
/// better), 0 for an answer.
int timing_direction(std::string_view path) {
  if (path.find("speedup") != std::string_view::npos) return -1;
  if (path.find("wall") != std::string_view::npos) return +1;
  return 0;
}

std::string leaf_repr(const JsonValue& v) {
  return v.is_string() ? "\"" + v.as_string() + "\"" : scalar_text(v);
}

bool same_leaf(const JsonValue& a, const JsonValue& b) {
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  if (a.is_bool() && b.is_bool()) return a.as_bool() == b.as_bool();
  if (a.is_string() && b.is_string()) return a.as_string() == b.as_string();
  return a.is_null() && b.is_null();
}

constexpr const char* kFlagText[] = {"CHANGED", "REGRESSION", "improved",
                                     ""};

using Leaves = std::map<std::string, const JsonValue*>;

void collect_leaves(const JsonValue& v, const std::string& path,
                    Leaves& leaves) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      collect_leaves(child, path.empty() ? key : path + "." + key, leaves);
    }
    return;
  }
  if (v.is_array()) {
    const auto& arr = v.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      collect_leaves(arr[i], path + "[" + std::to_string(i) + "]", leaves);
    }
    return;
  }
  leaves.emplace(path, &v);
}

}  // namespace

ReportDiff diff_reports(const JsonValue& before, const JsonValue& after,
                        double threshold_pct) {
  NFV_REQUIRE(threshold_pct >= 0.0);
  Leaves before_leaves;
  Leaves after_leaves;
  collect_leaves(before, "", before_leaves);
  collect_leaves(after, "", after_leaves);

  ReportDiff diff;
  for (const auto& [path, a] : after_leaves) {
    if (before_leaves.count(path) == 0) {
      diff.added.push_back({path, leaf_repr(*a)});
    }
  }
  for (const auto& [path, b] : before_leaves) {
    const auto it = after_leaves.find(path);
    if (it == after_leaves.end()) {
      diff.removed.push_back({path, leaf_repr(*b)});
      continue;
    }
    const JsonValue& a = *it->second;
    if (same_leaf(*b, a)) continue;
    DiffEntry e;
    e.path = path;
    e.before = leaf_repr(*b);
    e.after = leaf_repr(a);
    if (b->is_number() && a.is_number()) {
      const double x = b->as_number();
      const double y = a.as_number();
      e.delta = y - x;
      e.pct = x != 0.0 ? 100.0 * (y - x) / std::abs(x)
                       : (y > 0.0 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity());
    }
    const int direction = timing_direction(path);
    if (direction == 0 || std::isnan(e.pct)) {
      e.flag = DiffFlag::kChanged;
      ++diff.answers_changed;
    } else if (std::abs(e.pct) >= threshold_pct) {
      const bool worse = (e.delta > 0.0) == (direction > 0);
      e.flag = worse ? DiffFlag::kRegression : DiffFlag::kImproved;
      ++(worse ? diff.regressions : diff.improvements);
    }
    diff.changed.push_back(std::move(e));
  }

  // Flag order, then largest |pct| first: the order render_diff prints.
  const auto size = [](const DiffEntry& e) {
    return std::isnan(e.pct) ? 0.0 : std::abs(e.pct);
  };
  std::stable_sort(diff.changed.begin(), diff.changed.end(),
                   [&](const DiffEntry& x, const DiffEntry& y) {
                     if (x.flag != y.flag) return x.flag < y.flag;
                     return size(x) > size(y);
                   });
  return diff;
}

std::string render_diff(const ReportDiff& diff) {
  std::ostringstream os;
  if (diff.changed.empty() && diff.removed.empty() && diff.added.empty()) {
    os << "reports are identical\n";
    return os.str();
  }
  os << diff.changed.size() << " metrics changed, " << diff.answers_changed
     << " answers changed, " << diff.regressions << " regressions, "
     << diff.improvements << " improvements";
  if (!diff.added.empty() || !diff.removed.empty()) {
    os << ", " << diff.added.size() << " added, " << diff.removed.size()
       << " removed";
  }
  os << "\n\n";
  os << "| metric | before | after | delta | change | flag |\n";
  os << "|---|---|---|---|---|---|\n";
  for (const DiffEntry& e : diff.changed) {
    char pct[32] = "";
    if (std::isfinite(e.pct)) {
      std::snprintf(pct, sizeof pct, "%+.2f%%", e.pct);
    } else if (std::isinf(e.pct)) {
      std::snprintf(pct, sizeof pct, "%s", e.pct > 0 ? "+inf" : "-inf");
    }
    os << "| " << e.path << " | " << e.before << " | " << e.after << " | "
       << (std::isnan(e.delta) ? "" : format_number(e.delta)) << " | " << pct
       << " | " << kFlagText[static_cast<int>(e.flag)] << " |\n";
  }
  for (const LeafChange& c : diff.removed) {
    os << "only in baseline: " << c.path << " = " << c.value << " (removed)\n";
  }
  for (const LeafChange& c : diff.added) {
    os << "only in current:  " << c.path << " = " << c.value << " (added)\n";
  }
  return os.str();
}

}  // namespace nfv::obs
