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

namespace {

void write_metrics_snapshot(JsonWriter& w,
                            const MetricsRegistry::Snapshot& snap) {
  w.begin_object();
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
  w.end_object();
}

std::string format_number(double v) {
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

}  // namespace

void write_run_report(const RunReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kRunReportSchema);
  w.kv("command", report.command);
  w.kv("seed", report.seed);

  if (report.placement.present) {
    const PlacementSection& p = report.placement;
    w.key("placement");
    w.begin_object();
    w.kv("feasible", p.feasible);
    w.kv("algorithm", p.algorithm);
    w.kv("iterations", p.iterations);
    w.kv("nodes_in_service", p.nodes_in_service);
    w.kv("node_count", p.node_count);
    w.kv("avg_utilization", p.avg_utilization);
    w.kv("occupation", p.occupation);
    w.end_object();
  }

  if (report.scheduling.present) {
    const SchedulingSection& s = report.scheduling;
    w.key("scheduling");
    w.begin_object();
    w.kv("algorithm", s.algorithm);
    w.key("vnfs");
    w.begin_array();
    for (const VnfScheduleEntry& v : s.vnfs) {
      w.begin_object();
      w.kv("vnf", v.vnf);
      w.kv("instances", std::uint64_t{v.instances});
      w.kv("service_rate", v.service_rate);
      w.kv("delivery_prob", v.delivery_prob);
      w.kv("admitted", v.admitted);
      w.kv("rejected", v.rejected);
      w.kv("work", v.work);
      w.key("instance_load");
      w.begin_array();
      for (const double x : v.instance_load) w.value(x);
      w.end_array();
      w.key("instance_response");
      w.begin_array();
      for (const double x : v.instance_response) w.value(x);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (report.requests.present) {
    const RequestSection& r = report.requests;
    w.key("requests");
    w.begin_object();
    w.kv("total", r.total);
    w.kv("admitted", r.admitted);
    w.kv("rejection_rate", r.rejection_rate);
    w.kv("avg_total_latency", r.avg_total_latency);
    w.kv("avg_response", r.avg_response);
    w.end_object();
  }

  if (report.des.present) {
    const DesSection& d = report.des;
    w.key("des");
    w.begin_object();
    w.kv("events", d.events);
    w.kv("measured_window", d.measured_window);
    w.kv("generated", d.generated);
    w.kv("delivered", d.delivered);
    w.kv("retransmissions", d.retransmissions);
    w.kv("avg_utilization", d.avg_utilization);
    w.kv("mean_latency", d.mean_latency);
    w.end_object();
  }

  if (report.serve) {
    w.key("serve");
    w.begin_object();
    report.serve(w);
    w.end_object();
  }

  if (report.solver.present) {
    const SolverSection& s = report.solver;
    w.key("solver");
    w.begin_object();
    w.kv("solver", s.solver);
    w.kv("winner", s.winner);
    w.kv("budget", s.budget_work);
    w.key("backends");
    w.begin_array();
    for (const SolverBackendEntry& b : s.backends) {
      w.begin_object();
      w.kv("id", b.id);
      w.kv("feasible", b.feasible);
      w.kv("rejected", b.rejected);
      w.kv("objective", b.objective);
      w.kv("work", b.work);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (report.metrics.present) {
    w.key("metrics");
    write_metrics_snapshot(w, report.metrics.snapshot);
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

std::string pretty_print_report(const JsonValue& report) {
  std::ostringstream os;
  os << "run report — command '" << report.string_or("command", "?")
     << "', seed " << format_number(report.number_or("seed")) << "\n";

  if (const JsonValue* p = report.find("placement")) {
    os << "\nplacement (" << p->string_or("algorithm", "?") << ")\n";
    const JsonValue* feasible = p->find("feasible");
    os << "  feasible          : "
       << ((feasible != nullptr && feasible->is_bool() && feasible->as_bool())
               ? "yes"
               : "no")
       << "\n";
    os << "  nodes in service  : " << format_number(p->number_or("nodes_in_service"))
       << " / " << format_number(p->number_or("node_count")) << "\n";
    os << "  avg utilization   : "
       << format_number(100.0 * p->number_or("avg_utilization")) << "%\n";
    os << "  occupation        : " << format_number(p->number_or("occupation"))
       << "\n";
    os << "  iterations        : " << format_number(p->number_or("iterations"))
       << "\n";
  }

  if (const JsonValue* s = report.find("scheduling")) {
    const JsonValue* vnfs = s->find("vnfs");
    const std::size_t n =
        (vnfs != nullptr && vnfs->is_array()) ? vnfs->as_array().size() : 0;
    os << "\nscheduling (" << s->string_or("algorithm", "?") << "), " << n
       << " VNFs\n";
    if (vnfs != nullptr && vnfs->is_array()) {
      for (const JsonValue& v : vnfs->as_array()) {
        os << "  " << v.string_or("vnf", "?") << ": "
           << format_number(v.number_or("instances")) << " instances, "
           << format_number(v.number_or("admitted")) << " admitted, "
           << format_number(v.number_or("rejected")) << " rejected\n";
      }
    }
  }

  if (const JsonValue* r = report.find("requests")) {
    os << "\nrequests\n";
    os << "  admitted          : " << format_number(r->number_or("admitted"))
       << " / " << format_number(r->number_or("total")) << "\n";
    os << "  rejection rate    : "
       << format_number(100.0 * r->number_or("rejection_rate")) << "%\n";
    os << "  avg total latency : "
       << format_number(r->number_or("avg_total_latency")) << " s (Eq. 16)\n";
    os << "  avg response      : "
       << format_number(r->number_or("avg_response")) << " s\n";
  }

  if (const JsonValue* d = report.find("des")) {
    os << "\ndiscrete-event simulation\n";
    os << "  events processed  : " << format_number(d->number_or("events"))
       << "\n";
    os << "  delivered         : " << format_number(d->number_or("delivered"))
       << " / " << format_number(d->number_or("generated")) << " generated\n";
    os << "  mean latency      : "
       << format_number(d->number_or("mean_latency")) << " s\n";
    os << "  retransmissions   : "
       << format_number(d->number_or("retransmissions")) << "\n";
  }

  if (const JsonValue* s = report.find("serve")) {
    // Churn counters nest under serve.churn since the telemetry PR; fall
    // back to the flat fields so pre-telemetry reports still print.
    const JsonValue* churn = s->find("churn");
    const auto churn_num = [&](std::string_view name) {
      if (churn != nullptr && churn->is_object() &&
          churn->find(name) != nullptr) {
        return churn->number_or(name);
      }
      return s->number_or(name);
    };
    os << "\nserving (" << format_number(s->number_or("events"))
       << " events)\n";
    os << "  admitted          : "
       << format_number(s->number_or("admitted")) << " (+"
       << format_number(s->number_or("admitted_from_queue"))
       << " from queue) / " << format_number(s->number_or("arrivals"))
       << " arrivals\n";
    os << "  rejected / shed   : " << format_number(s->number_or("rejected"))
       << " / " << format_number(s->number_or("shed")) << " (+"
       << format_number(churn_num("shed_fault")) << " fault, "
       << format_number(churn_num("shed_overload")) << " overload)\n";
    os << "  availability      : "
       << format_number(s->number_or("availability", 1.0)) << " over "
       << format_number(churn_num("node_downs")) << " node failures ("
       << format_number(churn_num("instances_closed"))
       << " instances closed)\n";
    os << "  evacuations       : "
       << format_number(churn_num("evacuated_requests")) << " requests ("
       << format_number(churn_num("evacuation_migrations"))
       << " hop moves), " << format_number(churn_num("parked"))
       << " parked, " << format_number(churn_num("retry_admitted"))
       << " retry-admitted\n";
    os << "  degradations      : "
       << format_number(churn_num("degradations")) << " ("
       << format_number(churn_num("degraded_events"))
       << " events degraded)\n";
    if (churn != nullptr && churn->is_object()) {
      os << "  churn\n";
      std::size_t width = 0;
      for (const auto& [name, value] : churn->as_object()) {
        if (value.is_number()) width = std::max(width, name.size());
      }
      for (const auto& [name, value] : churn->as_object()) {
        if (!value.is_number()) continue;
        os << "    " << name << std::string(width - name.size(), ' ')
           << " : " << format_number(value.as_number()) << "\n";
      }
    }
    if (const JsonValue* a = s->find("autoscale");
        a != nullptr && a->is_object()) {
      os << "  autoscale (" << a->string_or("policy", "?") << ")\n";
      std::size_t width = 0;
      for (const auto& [name, value] : a->as_object()) {
        if (value.is_number()) width = std::max(width, name.size());
      }
      for (const auto& [name, value] : a->as_object()) {
        if (!value.is_number()) continue;
        os << "    " << name << std::string(width - name.size(), ' ')
           << " : " << format_number(value.as_number()) << "\n";
      }
    }
    if (const JsonValue* t = s->find("timeline");
        t != nullptr && t->is_object()) {
      os << "  timeline          : "
         << format_number(t->number_or("windows")) << " windows, min avail "
         << format_number(t->number_or("availability_min", 1.0))
         << " (window " << format_number(t->number_or("worst_window"))
         << " @ t=" << format_number(t->number_or("worst_window_t_start"))
         << "), " << format_number(t->number_or("shed_total")) << " shed\n";
    }
    os << "  migrations        : "
       << format_number(s->number_or("migrations")) << " over "
       << format_number(s->number_or("rebalances")) << " rebalances (max "
       << format_number(s->number_or("max_migrations_per_rebalance"))
       << " per pass)\n";
    os << "  scale out / in    : "
       << format_number(s->number_or("scale_outs")) << " / "
       << format_number(s->number_or("scale_ins")) << "\n";
    os << "  live at end       : "
       << format_number(s->number_or("live_requests")) << " requests on "
       << format_number(s->number_or("active_instances")) << " instances ("
       << format_number(s->number_or("nodes_in_service")) << " nodes), "
       << format_number(s->number_or("queued_requests")) << " queued, "
       << format_number(s->number_or("retry_queued")) << " retrying\n";
    os << "  predicted latency : mean "
       << format_number(s->number_or("mean_predicted_latency")) << " s, p99 "
       << format_number(s->number_or("p99_predicted_latency"))
       << " s (Eq. 16)\n";
  }

  if (const JsonValue* s = report.find("solver")) {
    os << "\nsolver race (" << s->string_or("solver", "?") << ")\n";
    os << "  winner            : " << s->string_or("winner", "?") << "\n";
    os << "  budget            : "
       << format_number(s->number_or("budget")) << " work units\n";
    if (const JsonValue* backends = s->find("backends");
        backends != nullptr && backends->is_array()) {
      for (const JsonValue& b : backends->as_array()) {
        const JsonValue* feasible = b.find("feasible");
        os << "  " << b.string_or("id", "?") << ": "
           << ((feasible != nullptr && feasible->is_bool() &&
                feasible->as_bool())
                   ? "feasible"
                   : "infeasible")
           << ", objective " << format_number(b.number_or("objective"))
           << ", " << format_number(b.number_or("rejected"))
           << " rejected, " << format_number(b.number_or("work"))
           << " work\n";
      }
    }
  }

  if (const JsonValue* m = report.find("metrics")) {
    std::size_t counters = 0;
    std::size_t gauges = 0;
    std::size_t hists = 0;
    if (const JsonValue* c = m->find("counters");
        c != nullptr && c->is_object()) {
      counters = c->as_object().size();
    }
    if (const JsonValue* g = m->find("gauges");
        g != nullptr && g->is_object()) {
      gauges = g->as_object().size();
    }
    if (const JsonValue* h = m->find("histograms");
        h != nullptr && h->is_object()) {
      hists = h->as_object().size();
    }
    os << "\nmetrics registry: " << counters << " counters, " << gauges
       << " gauges, " << hists << " histograms\n";
    if (const JsonValue* c = m->find("counters");
        c != nullptr && c->is_object()) {
      for (const auto& [name, value] : c->as_object()) {
        if (value.is_number()) {
          os << "  " << name << " = " << format_number(value.as_number())
             << "\n";
        }
      }
    }
  }
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
  if (v.is_number()) return format_number(v.as_number());
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_string()) return "\"" + v.as_string() + "\"";
  return "null";
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
