#include "nfv/obs/timeline.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

#include "nfv/obs/json.h"

namespace nfv::obs {

namespace {

[[noreturn]] void timeline_fail(std::size_t line, const std::string& what) {
  throw TimelineParseError("timeline line " + std::to_string(line) + ": " +
                           what);
}

void append_number(std::string& out, double v) {
  char buf[32];
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_count(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

double get_number(const JsonValue& o, std::string_view key, std::size_t line) {
  const JsonValue* v = o.find(key);
  if (v == nullptr || !v->is_number()) {
    timeline_fail(line, "missing numeric field \"" + std::string(key) + "\"");
  }
  const double x = v->as_number();
  if (!std::isfinite(x)) {
    timeline_fail(line, "non-finite field \"" + std::string(key) + "\"");
  }
  return x;
}

std::uint64_t get_count(const JsonValue& o, std::string_view key,
                        std::size_t line) {
  const double x = get_number(o, key, line);
  // 2^64 and above would overflow the cast.
  if (x < 0.0 || x != std::floor(x) || x >= 18446744073709551616.0) {
    timeline_fail(line, "field \"" + std::string(key) +
                            "\" is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(x);
}

/// Writer visitor for fields(TimelineRecord&, V&): one compact JSON object
/// per line.  One record per line is the JSONL contract, and the
/// pretty-printing JsonWriter would spread records over lines.
class LineWriter {
 public:
  explicit LineWriter(std::string& out) : out_(out) { out_ += '{'; }

  void operator()(std::string_view key, std::uint64_t x) {
    name(key);
    append_count(out_, x);
  }
  void operator()(std::string_view key, double x) {
    name(key);
    append_number(out_, x);
  }
  void operator()(std::string_view key, bool x) {
    name(key);
    out_ += x ? "true" : "false";
  }
  void operator()(std::string_view key, std::string_view x) {
    name(key);
    out_ += '"';
    out_ += x;
    out_ += '"';
  }
  void operator()(std::string_view key, const std::vector<double>& xs) {
    name(key);
    out_ += '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) out_ += ", ";
      append_number(out_, xs[i]);
    }
    out_ += ']';
  }
  bool group(bool on, std::string_view /*key*/) const { return on; }
  void close() { out_ += "}\n"; }

 private:
  void name(std::string_view key) {
    if (!first_) out_ += ", ";
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }

  std::string& out_;
  bool first_ = true;
};

/// Reader visitor for fields(TimelineRecord&, V&) over one parsed line:
/// finite numbers, non-negative integer counts, strict booleans.
class LineReader {
 public:
  LineReader(const JsonValue& o, std::size_t line) : o_(o), line_(line) {}

  void operator()(std::string_view key, std::uint64_t& x) {
    x = get_count(o_, key, line_);
  }
  void operator()(std::string_view key, double& x) {
    x = get_number(o_, key, line_);
  }
  void operator()(std::string_view key, bool& x) {
    const JsonValue* v = o_.find(key);
    if (v == nullptr || !v->is_bool()) {
      timeline_fail(line_,
                    "missing boolean field \"" + std::string(key) + "\"");
    }
    x = v->as_bool();
  }
  void operator()(std::string_view key, std::vector<double>& xs) {
    const JsonValue* v = o_.find(key);
    if (v == nullptr || !v->is_array()) {
      timeline_fail(line_, "missing array field \"" + std::string(key) + "\"");
    }
    xs.reserve(v->as_array().size());
    for (const JsonValue& x : v->as_array()) {
      if (!x.is_number() || !std::isfinite(x.as_number())) {
        timeline_fail(line_,
                      std::string(key) + " entries must be finite numbers");
      }
      xs.push_back(x.as_number());
    }
  }
  /// An optional group is all-or-nothing, keyed on its first field.
  bool group(bool& flag, std::string_view key) const {
    flag = o_.find(key) != nullptr;
    return flag;
  }

 private:
  const JsonValue& o_;
  std::size_t line_;
};

}  // namespace

void write_timeline(const TimelineDoc& doc, std::ostream& os) {
  std::string line;
  LineWriter header(line);
  header("schema", kTimelineSchema);
  header("snapshot_every", doc.snapshot_every);
  header("nodes", doc.nodes);
  header("windows", std::uint64_t{doc.records.size()});
  header.close();
  os << line;
  for (const TimelineRecord& r : doc.records) {
    line.clear();
    LineWriter record(line);
    fields(r, record);
    record.close();
    os << line;
  }
}

TimelineDoc load_timeline(std::string_view text) {
  TimelineDoc doc;
  std::size_t line_no = 0;
  bool saw_header = false;
  std::uint64_t promised = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = nl == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    // Skip blank lines (trailing newline produces one).
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;

    std::string err;
    const auto parsed = parse_json(line, &err);
    if (!parsed || !parsed->is_object()) {
      timeline_fail(line_no, parsed ? "record is not a JSON object" : err);
    }
    const JsonValue& o = *parsed;
    if (!saw_header) {
      const JsonValue* schema = o.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != kTimelineSchema) {
        timeline_fail(line_no, "missing or unsupported schema (want \"" +
                                   std::string(kTimelineSchema) + "\")");
      }
      doc.snapshot_every = get_number(o, "snapshot_every", line_no);
      if (doc.snapshot_every <= 0.0) {
        timeline_fail(line_no, "snapshot_every must be > 0");
      }
      doc.nodes = get_count(o, "nodes", line_no);
      promised = get_count(o, "windows", line_no);
      saw_header = true;
      continue;
    }
    TimelineRecord r;
    LineReader reader(o, line_no);
    fields(r, reader);
    if (r.t_end < r.t_start) timeline_fail(line_no, "t_end < t_start");
    if (doc.nodes != 0 && r.node_util.size() != doc.nodes) {
      timeline_fail(line_no, "node_util length disagrees with header nodes");
    }
    if (!doc.records.empty() && r.window <= doc.records.back().window) {
      timeline_fail(line_no, "window indices must be strictly increasing");
    }
    doc.records.push_back(std::move(r));
  }
  if (!saw_header) {
    throw TimelineParseError("timeline: empty input (no header line)");
  }
  // A killed writer leaves a short stream; the header count makes that
  // detectable instead of silently under-aggregating.
  if (doc.records.size() != promised) {
    throw TimelineParseError(
        "timeline: header promises " + std::to_string(promised) +
        " windows, stream carries " + std::to_string(doc.records.size()));
  }
  return doc;
}

TimelineAggregates aggregate_timeline(
    const std::vector<TimelineRecord>& records) {
  TimelineAggregates agg;
  agg.windows = records.size();
  if (records.empty()) return agg;
  agg.availability_min = records.front().availability;
  agg.carried_rate_min = records.front().carried_rate;
  double availability_sum = 0.0;
  for (const TimelineRecord& r : records) {
    availability_sum += r.availability;
    if (r.availability < agg.availability_min) {
      agg.availability_min = r.availability;
      agg.worst_window = r.window;
      agg.worst_window_t_start = r.t_start;
    }
    agg.offered_rate_max = std::max(agg.offered_rate_max, r.offered_rate);
    agg.carried_rate_min = std::min(agg.carried_rate_min, r.carried_rate);
    agg.live_max = std::max(agg.live_max, r.live);
    agg.queued_max = std::max(agg.queued_max, r.queued);
    agg.retrying_max = std::max(agg.retrying_max, r.retrying);
    agg.shed_total += r.shed;
    agg.rejected_total += r.rejected;
    agg.parked_total += r.parked;
    agg.evacuated_total += r.evacuated;
    agg.migrations_total += r.migrations;
    agg.wait_p99_latency_max = std::max(agg.wait_p99_latency_max, r.wait_p99);
    if (r.degraded) ++agg.degraded_windows;
    agg.nodes_down_max = std::max(agg.nodes_down_max, r.nodes_down);
  }
  agg.availability_mean =
      availability_sum / static_cast<double>(records.size());
  return agg;
}

std::vector<std::pair<std::string, double>> aggregate_values(
    const TimelineAggregates& agg) {
  return {
      {"windows", static_cast<double>(agg.windows)},
      {"availability_min", agg.availability_min},
      {"availability_mean", agg.availability_mean},
      {"worst_window", static_cast<double>(agg.worst_window)},
      {"worst_window_t_start", agg.worst_window_t_start},
      {"offered_rate_max", agg.offered_rate_max},
      {"carried_rate_min", agg.carried_rate_min},
      {"live_max", static_cast<double>(agg.live_max)},
      {"queued_max", static_cast<double>(agg.queued_max)},
      {"retrying_max", static_cast<double>(agg.retrying_max)},
      {"shed_total", static_cast<double>(agg.shed_total)},
      {"rejected_total", static_cast<double>(agg.rejected_total)},
      {"parked_total", static_cast<double>(agg.parked_total)},
      {"evacuated_total", static_cast<double>(agg.evacuated_total)},
      {"migrations_total", static_cast<double>(agg.migrations_total)},
      {"wait_p99_latency_max", agg.wait_p99_latency_max},
      {"degraded_windows", static_cast<double>(agg.degraded_windows)},
      {"nodes_down_max", static_cast<double>(agg.nodes_down_max)},
  };
}

}  // namespace nfv::obs
