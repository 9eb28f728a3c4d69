#include "nfv/obs/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace nfv::obs {
namespace {

/// A small but fully-populated report, tweakable per test.  Each section
/// is a writer, as the library that owns its data supplies it; obs only
/// places them.
RunReport canned_report(double latency, double availability) {
  RunReport report;
  report.command = "pipeline";
  report.seed = 42;
  report.sections.push_back({"placement", [](JsonWriter& w) {
    w.kv("feasible", true);
    w.kv("algorithm", "BFDSU");
    w.kv("iterations", std::uint64_t{3});
    w.kv("nodes_in_service", std::uint64_t{4});
    w.kv("node_count", std::uint64_t{8});
    w.kv("avg_utilization", 0.8);
    w.kv("occupation", 0.55);
  }});
  report.sections.push_back({"scheduling", [](JsonWriter& w) {
    w.kv("algorithm", "RCKK");
    w.key("vnfs");
    w.begin_array();
    w.begin_object();
    w.kv("vnf", "FW-1");
    w.kv("instances", std::uint64_t{2});
    w.kv("service_rate", 120.0);
    w.kv("delivery_prob", 0.98);
    w.kv("admitted", std::uint64_t{10});
    w.kv("rejected", std::uint64_t{1});
    w.kv("work", std::uint64_t{30});
    w.key("instance_load");
    w.begin_array();
    w.value(55.0);
    w.value(48.0);
    w.end_array();
    w.key("instance_response");
    w.begin_array();
    w.value(0.021);
    w.value(0.019);
    w.end_array();
    w.end_object();
    w.end_array();
  }});
  report.sections.push_back({"requests", [latency](JsonWriter& w) {
    w.kv("total", std::uint64_t{11});
    w.kv("admitted", std::uint64_t{10});
    w.kv("rejection_rate", 1.0 / 11.0);
    w.kv("avg_total_latency", latency);
    w.kv("avg_response", 0.02);
  }});
  report.sections.push_back({"des", [](JsonWriter& w) {
    w.kv("events", std::uint64_t{1000});
    w.kv("measured_window", 18.0);
    w.kv("generated", std::uint64_t{500});
    w.kv("delivered", std::uint64_t{490});
    w.kv("retransmissions", std::uint64_t{0});
    w.kv("avg_utilization", 0.0);
    w.kv("mean_latency", 0.0);
  }});
  report.sections.push_back({"serve", [availability](JsonWriter& w) {
    w.kv("events", std::uint64_t{12});
    w.kv("arrivals", std::uint64_t{6});
    w.kv("admitted", std::uint64_t{6});
    w.key("churn");
    w.begin_object();
    w.kv("node_downs", std::uint64_t{1});
    w.kv("evacuated_requests", std::uint64_t{2});
    w.end_object();
    w.kv("availability", availability);
  }});
  return report;
}

void drop_section(RunReport& report, std::string_view name) {
  std::erase_if(report.sections,
                [name](const ReportSection& s) { return s.name == name; });
}

std::string serialize(const RunReport& report) {
  std::ostringstream os;
  write_run_report(report, os);
  return os.str();
}

TEST(RunReport, RoundTripsThroughWriteAndLoad) {
  const auto loaded = load_run_report(serialize(canned_report(0.05, 0.99)));
  EXPECT_EQ(loaded.string_or("schema"), kRunReportSchema);
  EXPECT_EQ(loaded.string_or("command"), "pipeline");
  EXPECT_DOUBLE_EQ(loaded.number_or("seed"), 42.0);
  const JsonValue* placement = loaded.find("placement");
  ASSERT_NE(placement, nullptr);
  EXPECT_EQ(placement->string_or("algorithm"), "BFDSU");
  EXPECT_DOUBLE_EQ(placement->number_or("iterations"), 3.0);
  const JsonValue* scheduling = loaded.find("scheduling");
  ASSERT_NE(scheduling, nullptr);
  const auto& vnfs = scheduling->find("vnfs")->as_array();
  ASSERT_EQ(vnfs.size(), 1u);
  const auto& loads = vnfs[0].find("instance_load")->as_array();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0].as_number(), 55.0);
  EXPECT_DOUBLE_EQ(loads[1].as_number(), 48.0);
  const JsonValue* serve = loaded.find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_DOUBLE_EQ(serve->find("churn")->number_or("node_downs"), 1.0);
}

TEST(RunReport, AbsentSectionsAreOmitted) {
  RunReport report;
  report.command = "schedule";
  const auto loaded = load_run_report(serialize(report));
  EXPECT_EQ(loaded.find("placement"), nullptr);
  EXPECT_EQ(loaded.find("scheduling"), nullptr);
  EXPECT_EQ(loaded.find("des"), nullptr);
  EXPECT_EQ(loaded.find("serve"), nullptr);
  EXPECT_EQ(loaded.find("metrics"), nullptr);
}

TEST(RunReport, LoadRejectsMalformedInput) {
  EXPECT_THROW((void)load_run_report("not json"), std::invalid_argument);
  EXPECT_THROW((void)load_run_report("{}"), std::invalid_argument);
  EXPECT_THROW((void)load_run_report(R"({"schema": "other/9"})"),
               std::invalid_argument);
}

TEST(RunReport, PrettyPrintMentionsKeySections) {
  const auto loaded = load_run_report(serialize(canned_report(0.05, 0.99)));
  const std::string text = pretty_print_report(loaded);
  EXPECT_NE(text.find("BFDSU"), std::string::npos);
  EXPECT_NE(text.find("RCKK"), std::string::npos);
  EXPECT_NE(text.find("FW-1"), std::string::npos);
}

TEST(RunReport, PrettyPrintIsPinned) {
  // One schema-free walk renders every section: scalars aligned first,
  // then a heading per nested object, one line per array element.
  const auto loaded = load_run_report(serialize(canned_report(0.05, 0.99)));
  EXPECT_EQ(pretty_print_report(loaded), R"(command : pipeline
schema  : nfvpr.run_report/1
seed    : 42

des
  avg_utilization : 0
  delivered       : 490
  events          : 1000
  generated       : 500
  mean_latency    : 0
  measured_window : 18
  retransmissions : 0

placement
  algorithm        : BFDSU
  avg_utilization  : 0.8
  feasible         : true
  iterations       : 3
  node_count       : 8
  nodes_in_service : 4
  occupation       : 0.55

requests
  admitted          : 10
  avg_response      : 0.02
  avg_total_latency : 0.05
  rejection_rate    : 0.0909091
  total             : 11

scheduling
  algorithm : RCKK
  vnfs
    - admitted=10 delivery_prob=0.98 instance_load=[55, 48] instance_response=[0.021, 0.019] instances=2 rejected=1 service_rate=120 vnf=FW-1 work=30

serve
  admitted     : 6
  arrivals     : 6
  availability : 0.99
  events       : 12
  churn
    evacuated_requests : 2
    node_downs         : 1
)");
}

TEST(RunReport, PrettyPrintRendersEveryBenchRow) {
  const auto table = load_run_report(R"({
    "schema": "nfvpr.bench/1", "bench": "micro",
    "rows": [
      {"case": "bfdsu_place", "threads": 1, "wall_us": 217.5, "work": 17},
      {"case": "rckk_schedule", "threads": 1, "wall_us": 165.07, "work": 999},
      {"case": "joint_par", "threads": 4, "wall_us": 6485.1497, "work": 20}
    ]})");
  const std::string text = pretty_print_report(table);
  EXPECT_NE(text.find("bench  : micro\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nrows\n"
                      "  - case=bfdsu_place threads=1 wall_us=217.5 "
                      "work=17\n"
                      "  - case=rckk_schedule threads=1 wall_us=165.07 "
                      "work=999\n"
                      "  - case=joint_par threads=4 wall_us=6485.15 "
                      "work=20\n"),
            std::string::npos)
      << text;
}

TEST(ReportDiff, FlagsRegressionsAndImprovements) {
  // Latency up 20% (higher-worse -> regression), availability up
  // (higher-better -> improvement).
  const auto before = load_run_report(serialize(canned_report(0.050, 0.90)));
  const auto after = load_run_report(serialize(canned_report(0.060, 0.99)));
  const ReportDiff diff = diff_reports(before, after, 1.0);
  EXPECT_TRUE(diff.only_before.empty());
  EXPECT_TRUE(diff.only_after.empty());
  const auto find_entry = [&diff](std::string_view path) -> const DiffEntry* {
    const auto it = std::find_if(
        diff.changed.begin(), diff.changed.end(),
        [path](const DiffEntry& e) { return e.path == path; });
    return it == diff.changed.end() ? nullptr : &*it;
  };
  const DiffEntry* latency = find_entry("requests.avg_total_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_TRUE(latency->regression);
  EXPECT_FALSE(latency->improvement);
  EXPECT_NEAR(latency->pct, 20.0, 1e-9);
  const DiffEntry* availability = find_entry("serve.availability");
  ASSERT_NE(availability, nullptr);
  EXPECT_TRUE(availability->improvement);
  EXPECT_GE(diff.regressions, 1u);
  EXPECT_GE(diff.improvements, 1u);
}

TEST(ReportDiff, IdenticalReportsProduceNoChanges) {
  const auto report = load_run_report(serialize(canned_report(0.05, 0.99)));
  const ReportDiff diff = diff_reports(report, report, 1.0);
  EXPECT_TRUE(diff.changed.empty());
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_EQ(diff.improvements, 0u);
}

TEST(ReportDiff, ThresholdSuppressesSmallMoves) {
  const auto before = load_run_report(serialize(canned_report(0.0500, 0.99)));
  const auto after = load_run_report(serialize(canned_report(0.0502, 0.99)));
  // 0.4% move: recorded as changed, but below the 1% threshold.
  const ReportDiff diff = diff_reports(before, after, 1.0);
  EXPECT_EQ(diff.regressions, 0u);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_FALSE(diff.changed[0].regression);
}

TEST(ReportDiff, StructuralDifferencesAreReported) {
  RunReport lean;
  lean.command = "pipeline";
  lean.sections.push_back(
      {"requests", [](JsonWriter& w) { w.kv("total", std::uint64_t{5}); }});
  const auto before = load_run_report(serialize(canned_report(0.05, 0.99)));
  const auto after = load_run_report(serialize(lean));
  const ReportDiff diff = diff_reports(before, after, 1.0);
  EXPECT_FALSE(diff.only_before.empty());
  const auto has_prefix = [&diff](std::string_view prefix) {
    return std::any_of(diff.only_before.begin(), diff.only_before.end(),
                       [prefix](const std::string& p) {
                         return p.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(has_prefix("placement."));
  EXPECT_TRUE(has_prefix("des."));
}

TEST(ReportDiff, RenderFlagsRegressions) {
  const auto before = load_run_report(serialize(canned_report(0.050, 0.99)));
  const auto after = load_run_report(serialize(canned_report(0.075, 0.99)));
  const ReportDiff diff = diff_reports(before, after, 1.0);
  ASSERT_GE(diff.regressions, 1u);
  const std::string text = render_diff(diff);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("requests.avg_total_latency"), std::string::npos);
}

TEST(ReportDiff, RenderOfEmptyDiffSaysSo) {
  const ReportDiff diff;
  const std::string text = render_diff(diff);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.find("REGRESSION"), std::string::npos);
}

TEST(ReportDiff, OneSidedMetricsCarryTheirValues) {
  // A metric present in only one report must surface as removed/added with
  // its value, not silently drop out of the diff.
  RunReport base = canned_report(0.05, 0.99);
  RunReport cand = canned_report(0.05, 0.99);
  drop_section(base, "des");    // des.* only in the candidate -> added
  drop_section(cand, "serve");  // serve.* only in baseline -> removed
  const auto before = load_run_report(serialize(base));
  const auto after = load_run_report(serialize(cand));
  const ReportDiff diff = diff_reports(before, after, 1.0);

  const auto find_leaf = [](const std::vector<LeafChange>& v,
                            std::string_view path) -> const LeafChange* {
    const auto it =
        std::find_if(v.begin(), v.end(),
                     [path](const LeafChange& c) { return c.path == path; });
    return it == v.end() ? nullptr : &*it;
  };
  const LeafChange* removed = find_leaf(diff.removed, "serve.availability");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->value, "0.99");
  const LeafChange* added = find_leaf(diff.added, "des.events");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->value, "1000");
  // removed/added mirror only_before/only_after one-to-one.
  EXPECT_EQ(diff.removed.size(), diff.only_before.size());
  EXPECT_EQ(diff.added.size(), diff.only_after.size());

  const std::string text = render_diff(diff);
  EXPECT_NE(text.find("only in baseline: serve.availability = 0.99 (removed)"),
            std::string::npos);
  EXPECT_NE(text.find("only in current:  des.events = 1000 (added)"),
            std::string::npos);
  EXPECT_NE(text.find("added"), std::string::npos);
  EXPECT_NE(text.find("removed"), std::string::npos);
}

TEST(ReportDiff, OldSolverSectionDiffsAsTwoRemovedKeys) {
  // Reports from before the wall-clock race budget was deleted carry
  // `deterministic` and `budget_ms` in their solver section.  They still
  // load, and against a current report those two keys are the whole diff:
  // removed, not regressions.
  RunReport report = canned_report(0.05, 0.99);
  report.sections.push_back({"solver", [](JsonWriter& w) {
    w.kv("solver", "portfolio");
    w.kv("winner", "lp");
    w.kv("budget", std::uint64_t{32});
    w.key("backends");
    w.begin_array();
    w.begin_object();
    w.kv("id", "lp");
    w.kv("feasible", true);
    w.kv("rejected", std::uint64_t{0});
    w.kv("objective", 0.04);
    w.kv("work", std::uint64_t{32});
    w.end_object();
    w.end_array();
  }});
  const std::string current = serialize(report);
  std::string old = current;
  const std::string budget = "\"budget\": 32,";
  const std::size_t at = old.find(budget);
  ASSERT_NE(at, std::string::npos) << current;
  old.replace(at, budget.size(),
              "\"deterministic\": true, " + budget + " \"budget_ms\": 0,");

  const ReportDiff diff =
      diff_reports(load_run_report(old), load_run_report(current), 1.0);
  ASSERT_EQ(diff.removed.size(), 2u);
  EXPECT_EQ(diff.removed[0].path, "solver.budget_ms");
  EXPECT_EQ(diff.removed[0].value, "0");
  EXPECT_EQ(diff.removed[1].path, "solver.deterministic");
  EXPECT_EQ(diff.removed[1].value, "true");
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.changed.empty());
  EXPECT_TRUE(diff.type_changed.empty());
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_NE(pretty_print_report(load_run_report(old))
                .find("  budget        : 32\n"),
            std::string::npos);
}

TEST(ReportDiff, TypeChangesAreFlaggedNotDropped) {
  // The same path holding a number on one side and a string on the other is
  // a type change: previously these leaves vanished from the diff entirely.
  const auto before =
      load_run_report(R"({"schema": "nfvpr.run_report/1", "x": 3})");
  const auto after =
      load_run_report(R"({"schema": "nfvpr.run_report/1", "x": "three"})");
  const ReportDiff diff = diff_reports(before, after, 1.0);
  ASSERT_EQ(diff.type_changed.size(), 1u);
  EXPECT_EQ(diff.type_changed[0], "x");
  EXPECT_TRUE(diff.only_before.empty());
  EXPECT_TRUE(diff.only_after.empty());
  EXPECT_TRUE(diff.changed.empty());
  const std::string text = render_diff(diff);
  EXPECT_NE(text.find("type changed:     x"), std::string::npos);
  EXPECT_EQ(text.find("reports are identical"), std::string::npos);
}

TEST(ReportDiff, GapCountsAsHigherWorse) {
  const auto before =
      load_run_report(R"({"schema": "nfvpr.run_report/1", "bench": {"gap": 1}})");
  const auto after =
      load_run_report(R"({"schema": "nfvpr.run_report/1", "bench": {"gap": 2}})");
  const ReportDiff diff = diff_reports(before, after, 1.0);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_TRUE(diff.changed[0].regression);
}

TEST(RunReport, ServeSectionRoundTrips) {
  RunReport report;
  report.command = "serve";
  report.sections.push_back({"serve", [](JsonWriter& w) {
    w.kv("events", std::uint64_t{6});
    w.kv("migrations", std::uint64_t{2});
    w.kv("mean_predicted_latency", 0.0556);
    w.key("events_log");
    w.begin_array();
    w.begin_object();
    w.kv("kind", "arrive");
    w.kv("decision", "admitted");
    w.end_object();
    w.end_array();
  }});

  const auto loaded = load_run_report(serialize(report));
  const JsonValue* serve = loaded.find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_DOUBLE_EQ(serve->number_or("events"), 6.0);
  EXPECT_DOUBLE_EQ(serve->number_or("migrations"), 2.0);
  EXPECT_DOUBLE_EQ(serve->number_or("mean_predicted_latency"), 0.0556);
  const JsonValue* log = serve->find("events_log");
  ASSERT_NE(log, nullptr);
  ASSERT_EQ(log->as_array().size(), 1u);
  EXPECT_EQ(log->as_array()[0].string_or("decision"), "admitted");
  EXPECT_EQ(log->as_array()[0].string_or("kind"), "arrive");

  const std::string text = pretty_print_report(loaded);
  EXPECT_NE(text.find("\nserve\n  events                 : 6\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  events_log\n    - decision=admitted kind=arrive\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace nfv::obs
