// Unit tests of the benchmark's own code: the percentile rule, span
// self-time arithmetic, metric-name charset and input digests.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(1000), 99.0), 990.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, HighestWithTenBeyond) {
  EXPECT_FALSE(highest_supported_percentile(one_to(19)).has_value());

  const auto t20 = highest_supported_percentile(one_to(20));
  ASSERT_TRUE(t20.has_value());
  EXPECT_DOUBLE_EQ(t20->pct, 50.0);
  EXPECT_EQ(t20->beyond, 10u);

  const auto t100 = highest_supported_percentile(one_to(100));
  ASSERT_TRUE(t100.has_value());
  EXPECT_DOUBLE_EQ(t100->pct, 90.0);
  EXPECT_DOUBLE_EQ(t100->value, 90.0);
  EXPECT_EQ(t100->samples, 100u);

  const auto t999 = highest_supported_percentile(one_to(999));
  ASSERT_TRUE(t999.has_value());
  EXPECT_DOUBLE_EQ(t999->pct, 90.0);  // p99 would have only 9 beyond

  const auto t1000 = highest_supported_percentile(one_to(1000));
  ASSERT_TRUE(t1000.has_value());
  EXPECT_DOUBLE_EQ(t1000->pct, 99.0);
  EXPECT_EQ(t1000->beyond, 10u);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

Span span(const char* layer, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  Span s;
  s.name = layer;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // root [0,100] ─┬─ a [10,40] ── a1 [20,30]
  //               ├─ b [50,70]
  //               └─ c [60,80]   (overlaps b: the union counts once)
  const std::vector<Span> spans = {
      span("bench", 0, 100, -1), span("serve", 10, 40, 0),
      span("scheduling", 20, 30, 1), span("serve", 50, 70, 0),
      span("obs", 60, 80, 0)};
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - 30 - 30);  // children cover [10,40] ∪ [50,80]
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[4], 20);
}

TEST(Spans, ChildrenClippedToParent) {
  const std::vector<Span> spans = {span("bench", 0, 10, -1),
                                   span("serve", 5, 15, 0)};
  EXPECT_EQ(self_times(spans)[0], 5);
}

TEST(Spans, LayerTotalsAndRecorderNesting) {
  SpanRecorder rec;
  rec.add(span("bench", 0, 100, -1));
  rec.add(span("serve", 10, 40, 0));
  rec.add(span("serve", 50, 70, 0));
  const auto by_layer = rec.self_ns_by_layer();
  EXPECT_EQ(by_layer.at("bench"), 50);
  EXPECT_EQ(by_layer.at("serve"), 50);

  SpanRecorder live;
  {
    ScopedSpan outer(&live, "bench.run", "bench");
    ScopedSpan inner(&live, "serve.arrive", "serve");
  }
  ASSERT_EQ(live.spans().size(), 2u);
  EXPECT_EQ(live.spans()[1].parent, 0);
  EXPECT_LE(live.spans()[0].start_ns, live.spans()[1].start_ns);
  EXPECT_GE(live.spans()[0].end_ns, live.spans()[1].end_ns);

  std::ostringstream json;
  live.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.str().find("\"parent\": 0"), std::string::npos);
}

TEST(MetricNames, Charset) {
  for (const char* ok : {"ops_per_s", "serve.decide_share", "a-b", "9lives",
                         "setup_s", "X.y_z-1"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", ".x", "_x", "-x", "a b", "a/b", "a:b",
                          "caf\xc3\xa9", "a\"b"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Report, RejectsBadNamesDuplicatesAndNonFinite) {
  Report r;
  r.add("ops_per_s", 1.5, "1/s", 3);
  EXPECT_THROW(r.add("ops_per_s", 2.0, "1/s", 3), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 2.0, "1/s", 3), std::invalid_argument);
  EXPECT_THROW(r.add("nan_metric", std::nan(""), "1/s", 3),
               std::invalid_argument);
  r.add("setup_s", 0.1234567890123456789, "s", 3);
  const std::string json = r.result_json(true, 10, 0);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0),
            0u);
  EXPECT_NE(json.find("0.12345678901234568"), std::string::npos);
}

ServeShape small_serve_shape() {
  ServeShape shape;
  shape.nodes = 4;
  shape.vnfs = 6;
  shape.stream.target_population = 10;
  shape.stream.churn_node_count = 2;
  shape.stream.node_mtbf = 2.0;
  shape.stream.node_mttr = 0.5;
  shape.warmup_events = 20;
  shape.segment_events = 60;
  return shape;
}

TEST(InputDigest, SameSeedSameDigestOtherSeedOther) {
  const auto a = make_serve_inputs(small_serve_shape(), 1);
  const auto b = make_serve_inputs(small_serve_shape(), 1);
  const auto c = make_serve_inputs(small_serve_shape(), 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.segment, b.segment);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_EQ(a.warmup.events.size(), 20u);
  EXPECT_GE(a.segment_events, 60u);  // node churn rides on top

  OfflineShape offline;
  offline.instances = 3;
  offline.requests_max = 60;
  const auto x = make_offline_inputs(offline, 5);
  const auto y = make_offline_inputs(offline, 5);
  const auto z = make_offline_inputs(offline, 6);
  EXPECT_EQ(x.digest, y.digest);
  EXPECT_EQ(x.solve_seeds, y.solve_seeds);
  EXPECT_NE(x.digest, z.digest);
  ASSERT_EQ(x.models.size(), 3u);
  EXPECT_LT(x.models.front().workload.requests.size(),
            x.models.back().workload.requests.size());
}

}  // namespace
}  // namespace perfbench
