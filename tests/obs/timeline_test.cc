// Timeline JSONL and lifecycle trace contracts (DESIGN.md §14): bit-exact
// round-trips, whole-stream aggregates, and parse errors that name the
// offending line.  The flight-recorder dump is a view of the serve log and
// is tested with the engine (tests/serve/timeline_test.cc).
#include "nfv/obs/timeline.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "nfv/obs/json.h"
#include "nfv/obs/lifecycle.h"

namespace nfv::obs {
namespace {

TimelineRecord make_record(std::uint64_t window) {
  TimelineRecord r;
  r.window = window;
  r.t_start = 0.5 * static_cast<double>(window);
  r.t_end = r.t_start + 0.5;
  r.events = 7 + window;
  r.offered_rate = 123.456789012345678 + static_cast<double>(window);
  r.carried_rate = r.offered_rate * 0.875;
  r.availability = 1.0 - 0.0625 * static_cast<double>(window);
  r.live = 10 * (window + 1);
  r.queued = window;
  r.retrying = window / 2;
  r.admitted = 5;
  r.admitted_from_queue = 1;
  r.retry_admitted = window % 2;
  r.rejected = window % 3;
  r.shed = window;
  r.evacuated = 2 * window;
  r.parked = window;
  r.migrations = 11;
  r.degraded = (window % 2) == 1;
  r.nodes_down = window % 4;
  r.node_util = {0.25, 1.0 / 3.0, 0.0};
  r.wait_count = 3 * window;
  r.wait_p50 = 0.125;
  r.wait_p90 = 0.25 + 1e-17;
  r.wait_p99 = 0.5;
  return r;
}

TimelineDoc make_doc(std::size_t windows) {
  TimelineDoc doc;
  doc.snapshot_every = 0.5;
  doc.nodes = 3;
  for (std::size_t w = 0; w < windows; ++w) {
    doc.records.push_back(make_record(w));
  }
  return doc;
}

TEST(Timeline, RoundTripsBitExactly) {
  const TimelineDoc doc = make_doc(5);
  std::ostringstream os;
  write_timeline(doc, os);
  const TimelineDoc back = load_timeline(os.str());
  EXPECT_EQ(back, doc);

  // Re-serializing the parsed doc must reproduce the bytes — the
  // determinism contract rides on %.17g round-tripping.
  std::ostringstream os2;
  write_timeline(back, os2);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(Timeline, HeaderCarriesSchemaAndWindowCount) {
  std::ostringstream os;
  write_timeline(make_doc(3), os);
  const std::string text = os.str();
  const std::string header = text.substr(0, text.find('\n'));
  EXPECT_NE(header.find("\"schema\": \"nfvpr.timeline/1\""),
            std::string::npos);
  EXPECT_NE(header.find("\"windows\": 3"), std::string::npos);
  // JSONL: exactly one line per record plus the header.
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
}

TEST(Timeline, EmptyDocRoundTrips) {
  const TimelineDoc doc = make_doc(0);
  std::ostringstream os;
  write_timeline(doc, os);
  EXPECT_EQ(load_timeline(os.str()), doc);
}

TEST(Timeline, ParseErrorsNameTheLine) {
  std::ostringstream os;
  write_timeline(make_doc(2), os);
  const std::string good = os.str();

  // Wrong schema string on line 1.
  std::string bad = good;
  bad.replace(bad.find("timeline/1"), 10, "timeline/9");
  try {
    (void)load_timeline(bad);
    FAIL() << "expected TimelineParseError";
  } catch (const TimelineParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }

  // A record missing a required field: drop "availability" from line 3.
  bad = good;
  const std::size_t second = bad.find("{\"window\": 1");
  ASSERT_NE(second, std::string::npos);
  const std::size_t avail = bad.find(", \"availability\"", second);
  ASSERT_NE(avail, std::string::npos);
  bad.erase(avail, bad.find(", \"live\"", avail) - avail);
  try {
    (void)load_timeline(bad);
    FAIL() << "expected TimelineParseError";
  } catch (const TimelineParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("availability"), std::string::npos) << what;
  }

  // Truncated: header promises more windows than the stream carries.
  bad = good.substr(0, good.rfind("{\"window\": 1"));
  EXPECT_THROW((void)load_timeline(bad), TimelineParseError);

  EXPECT_THROW((void)load_timeline("not json"), TimelineParseError);
  EXPECT_THROW((void)load_timeline(""), TimelineParseError);
}

TEST(Timeline, AggregatesLocateTheWorstWindow) {
  TimelineDoc doc = make_doc(6);
  // make_record gives availability 1 − w/16, so window 5 is the dip.
  const TimelineAggregates agg = aggregate_timeline(doc.records);
  EXPECT_EQ(agg.windows, 6u);
  EXPECT_DOUBLE_EQ(agg.availability_min, 1.0 - 0.0625 * 5);
  EXPECT_EQ(agg.worst_window, 5u);
  EXPECT_DOUBLE_EQ(agg.worst_window_t_start, 2.5);
  EXPECT_EQ(agg.shed_total, 0u + 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(agg.degraded_windows, 3u);
  EXPECT_EQ(agg.nodes_down_max, 3u);
  EXPECT_EQ(agg.live_max, 60u);
  EXPECT_DOUBLE_EQ(agg.wait_p99_latency_max, 0.5);
}

TEST(Timeline, AggregateValuesExposeEveryGateableName) {
  const TimelineAggregates agg = aggregate_timeline(make_doc(4).records);
  const auto values = aggregate_values(agg);
  ASSERT_FALSE(values.empty());
  // The --fail-on vocabulary: every aggregate is reachable by name.
  bool saw_min = false;
  bool saw_shed = false;
  for (const auto& [name, value] : values) {
    if (name == "availability_min") {
      saw_min = true;
      EXPECT_DOUBLE_EQ(value, agg.availability_min);
    }
    if (name == "shed_total") {
      saw_shed = true;
      EXPECT_DOUBLE_EQ(value, static_cast<double>(agg.shed_total));
    }
  }
  EXPECT_TRUE(saw_min);
  EXPECT_TRUE(saw_shed);
}

// ---------------------------------------------------------------------------
// Lifecycle trace
// ---------------------------------------------------------------------------

std::vector<LifecycleEvent> make_lifecycle() {
  std::vector<LifecycleEvent> ev;
  ev.push_back({0, 0.0, 4, LifecycleStage::kAdmit, kLifecycleNoNode, 0});
  ev.push_back({0, 0.0, 4, LifecycleStage::kPlace, 2, 0});
  ev.push_back({0, 0.0, 4, LifecycleStage::kPlace, 1, 1});
  ev.push_back({3, 0.75, 4, LifecycleStage::kMigrate, 0, 1});
  ev.push_back({5, 1.25, 4, LifecycleStage::kEvacuate, 2, 0});
  ev.push_back({6, 1.5, 4, LifecycleStage::kPark, kLifecycleNoNode, 1});
  ev.push_back({9, 2.0, 4, LifecycleStage::kRetryBackoff, kLifecycleNoNode,
                2});
  ev.push_back({14, 3.0, 4, LifecycleStage::kRetryAdmit, kLifecycleNoNode,
                2});
  ev.push_back({20, 4.5, 4, LifecycleStage::kDepart, kLifecycleNoNode, 0});
  return ev;
}

TEST(Lifecycle, RoundTripsThroughChromeTrace) {
  const auto events = make_lifecycle();
  std::ostringstream os;
  write_lifecycle_trace(events, 5.0, os);
  const auto back = load_lifecycle(os.str());
  EXPECT_EQ(back, events);
}

TEST(Lifecycle, RendersCompleteSpansPerRequest) {
  std::ostringstream os;
  write_lifecycle_trace(make_lifecycle(), 5.0, os);
  const auto parsed = parse_json(os.str());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue& doc = *parsed;
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), make_lifecycle().size());
  for (const JsonValue& jv : doc.as_array()) {
    ASSERT_TRUE(jv.is_object());
    EXPECT_EQ(jv.find("ph")->as_string(), "X");
    // tid is the request id: one chrome row per request.
    EXPECT_EQ(jv.find("tid")->as_number(), 4.0);
    EXPECT_GE(jv.find("dur")->as_number(), 0.0);
  }
}

TEST(Lifecycle, LoadRejectsMalformedTraces) {
  EXPECT_THROW(load_lifecycle("{}"), LifecycleParseError);
  EXPECT_THROW(load_lifecycle("[{\"ph\": \"X\"}]"), LifecycleParseError);
  EXPECT_THROW(load_lifecycle("nope"), LifecycleParseError);
  std::ostringstream os;
  write_lifecycle_trace(make_lifecycle(), 5.0, os);
  std::string bad = os.str();
  bad.replace(bad.find("admit"), 5, "ADMIT");
  EXPECT_THROW(load_lifecycle(bad), LifecycleParseError);
}

TEST(Lifecycle, StageNamesAreStable) {
  EXPECT_EQ(to_string(LifecycleStage::kAdmit), "admit");
  EXPECT_EQ(to_string(LifecycleStage::kRetryBackoff), "retry_backoff");
  EXPECT_EQ(to_string(LifecycleStage::kDepart), "depart");
}

}  // namespace
}  // namespace nfv::obs
