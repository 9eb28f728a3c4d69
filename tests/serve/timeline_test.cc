// Streaming-telemetry determinism contract (DESIGN.md §14): the timeline
// and lifecycle streams of a serve replay are byte-identical for any
// thread count and across any checkpoint/resume split, telemetry never
// changes the engine's decisions, and an availability dip in the stream
// localizes to the windows where churn actually took nodes down.  The
// flight-recorder dump is the tail of the engine log: the last K entries
// oldest first, and a resumed run's dump equals the uninterrupted run's.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/json.h"
#include "nfv/obs/lifecycle.h"
#include "nfv/obs/timeline.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace nfv::serve {
namespace {

// An intentionally harsh fixture: a small star topology with tight node
// capacities and three churning nodes (MTTR longer than MTBF) so the
// fault ladder runs out of placement room and availability really dips.
topo::Topology make_topo() {
  Rng rng(3);
  return topo::make_star(4, {800.0, 1200.0}, {}, rng);
}

struct Fixture {
  workload::Workload base;
  workload::EventTrace trace;
};

Fixture make_fixture() {
  workload::WorkloadConfig wcfg;
  wcfg.vnf_count = 8;
  wcfg.request_count = 60;
  Rng wrng(3);
  Fixture fx;
  fx.base = workload::WorkloadGenerator(wcfg).generate(wrng);
  workload::EventStreamConfig scfg;
  scfg.event_count = 600;
  scfg.target_population = 80;
  scfg.churn_node_count = 3;
  scfg.node_mtbf = 1.0;
  scfg.node_mttr = 1.2;
  Rng srng(3);
  fx.trace = workload::EventStreamGenerator(fx.base, scfg).generate(srng);
  return fx;
}

ServeConfig telemetry_config() {
  ServeConfig cfg;
  cfg.snapshot_every = 0.5;
  cfg.lifecycle = true;
  return cfg;
}

struct Streams {
  std::string timeline;
  std::string lifecycle;
};

Streams render(const ServeEngine& engine) {
  Streams out;
  std::ostringstream tl;
  obs::write_timeline(engine.timeline_doc(), tl);
  out.timeline = tl.str();
  std::ostringstream lc;
  const double trace_end =
      engine.log().empty() ? 0.0 : engine.log().back().time;
  obs::write_lifecycle_trace(engine.lifecycle_log(), trace_end, lc);
  out.lifecycle = lc.str();
  return out;
}

TEST(ServeTimeline, ByteIdenticalAcrossThreadCounts) {
  const Fixture fx = make_fixture();
  ServeEngine serial(make_topo(), fx.base.vnfs, telemetry_config());
  serial.replay(fx.trace);
  const Streams want = render(serial);
  ASSERT_FALSE(want.timeline.empty());

  for (const std::uint32_t width : {2u, 8u}) {
    exec::ThreadPool pool(width);
    const exec::ScopedPool scoped(pool);
    ServeEngine threaded(make_topo(), fx.base.vnfs, telemetry_config());
    threaded.replay(fx.trace);
    const Streams got = render(threaded);
    EXPECT_EQ(got.timeline, want.timeline) << "width " << width;
    EXPECT_EQ(got.lifecycle, want.lifecycle) << "width " << width;
  }
}

TEST(ServeTimeline, ByteIdenticalAcrossCheckpointResumeSplits) {
  const Fixture fx = make_fixture();
  ServeEngine uninterrupted(make_topo(), fx.base.vnfs, telemetry_config());
  uninterrupted.replay(fx.trace);
  const Streams want = render(uninterrupted);

  for (const std::size_t kill : {1ul, 170ul, 599ul}) {
    ServeEngine first(make_topo(), fx.base.vnfs, telemetry_config());
    for (std::size_t i = 0; i < kill; ++i) {
      first.on_event(fx.trace.events[i]);
    }
    const std::string ck =
        save_checkpoint_string(first, static_cast<std::uint64_t>(kill));
    std::uint64_t cursor = 0;
    ServeEngine resumed =
        restore_checkpoint(ck, make_topo(), fx.base.vnfs, &cursor);
    ASSERT_EQ(cursor, kill);
    // The checkpoint carries the telemetry config — resume must not need
    // the flags repeated.
    EXPECT_DOUBLE_EQ(resumed.config().snapshot_every, 0.5);
    EXPECT_TRUE(resumed.config().lifecycle);
    for (std::size_t i = kill; i < fx.trace.events.size(); ++i) {
      resumed.on_event(fx.trace.events[i]);
    }
    const Streams got = render(resumed);
    EXPECT_EQ(got.timeline, want.timeline) << "kill at " << kill;
    EXPECT_EQ(got.lifecycle, want.lifecycle) << "kill at " << kill;
  }
}

TEST(ServeTimeline, TelemetryNeverChangesTheReplay) {
  const Fixture fx = make_fixture();
  ServeEngine with(make_topo(), fx.base.vnfs, telemetry_config());
  with.replay(fx.trace);
  ServeEngine without(make_topo(), fx.base.vnfs, ServeConfig{});
  without.replay(fx.trace);

  EXPECT_EQ(with.snapshot(), without.snapshot());
  const ServeSummary a = with.summary();
  const ServeSummary b = without.summary();
  EXPECT_EQ(a.availability, b.availability);  // bit-identical, not just near
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.shed_fault, b.shed_fault);
}

TEST(ServeTimeline, AvailabilityDipLocalizesToChurnWindows) {
  const Fixture fx = make_fixture();
  ServeEngine engine(make_topo(), fx.base.vnfs, telemetry_config());
  engine.replay(fx.trace);
  const obs::TimelineDoc doc = engine.timeline_doc();
  const obs::TimelineAggregates agg = obs::aggregate_timeline(doc.records);

  // The harsh fixture must actually hurt, or this test tests nothing.
  ASSERT_GT(agg.windows, 10u);
  ASSERT_LT(agg.availability_min, 0.90);
  ASSERT_GE(agg.nodes_down_max, 2u);

  // The worst window is a churn window: nodes were down while it accrued.
  const obs::TimelineRecord& worst =
      doc.records[static_cast<std::size_t>(agg.worst_window)];
  EXPECT_EQ(worst.window, agg.worst_window);
  EXPECT_DOUBLE_EQ(worst.availability, agg.availability_min);
  EXPECT_GE(worst.nodes_down, 1u);

  // Every deep dip sits in a window that saw churn fallout (nodes down,
  // parked/retrying backlog, or fault shedding); calm windows stay near 1.
  for (const obs::TimelineRecord& r : doc.records) {
    if (r.availability < 0.90) {
      EXPECT_TRUE(r.nodes_down > 0 || r.retrying > 0 || r.parked > 0 ||
                  r.shed > 0)
          << "window " << r.window << " dipped to " << r.availability
          << " with no churn fallout";
    }
    if (r.nodes_down == 0 && r.retrying == 0 && r.parked == 0) {
      EXPECT_GT(r.availability, 0.90)
          << "calm window " << r.window << " unexpectedly dipped";
    }
  }

  // Down nodes report zero utilization in the per-node vector.
  bool saw_down_node_util = false;
  for (const obs::TimelineRecord& r : doc.records) {
    ASSERT_EQ(r.node_util.size(), doc.nodes);
    if (r.nodes_down > 0) {
      for (const double u : r.node_util) {
        if (u == 0.0) saw_down_node_util = true;
        EXPECT_GE(u, 0.0);
      }
    }
  }
  EXPECT_TRUE(saw_down_node_util);
}

TEST(ServeTimeline, WaitPercentilesComeFromTheSlidingWindow) {
  const Fixture fx = make_fixture();
  ServeConfig cfg = telemetry_config();
  cfg.timeline_span = 2;  // short span: old waits age out quickly
  ServeEngine engine(make_topo(), fx.base.vnfs, cfg);
  engine.replay(fx.trace);
  const obs::TimelineDoc doc = engine.timeline_doc();
  bool saw_samples = false;
  for (const obs::TimelineRecord& r : doc.records) {
    if (r.wait_count > 0) {
      saw_samples = true;
      EXPECT_LE(r.wait_p50, r.wait_p90);
      EXPECT_LE(r.wait_p90, r.wait_p99);
      EXPECT_GE(r.wait_p50, 0.0);
    } else {
      EXPECT_EQ(r.wait_p99, 0.0);
    }
  }
  EXPECT_TRUE(saw_samples);
}

std::string flight_dump(const ServeEngine& engine, std::size_t capacity) {
  std::ostringstream os;
  write_flight_dump(engine, capacity, os);
  return os.str();
}

obs::JsonValue parse_dump(const std::string& text) {
  std::optional<obs::JsonValue> doc = obs::parse_json(text);
  EXPECT_TRUE(doc.has_value());
  return doc ? std::move(*doc) : obs::JsonValue();
}

void expect_entry_is(const obs::JsonValue& entry, const EventOutcome& e) {
  EXPECT_EQ(entry.find("index")->as_number(), static_cast<double>(e.index));
  EXPECT_EQ(entry.find("t")->as_number(), e.time);
  EXPECT_EQ(entry.find("kind")->as_string(), workload::to_string(e.kind));
  EXPECT_EQ(entry.find("request")->as_number(), e.request);
  EXPECT_EQ(entry.find("decision")->as_string(), to_string(e.decision));
  EXPECT_EQ(entry.find("migrations")->as_number(), e.migrations);
  EXPECT_EQ(entry.find("scale_outs")->as_number(), e.scale_outs);
  EXPECT_EQ(entry.find("scale_ins")->as_number(), e.scale_ins);
  EXPECT_EQ(entry.find("admitted_from_queue")->as_number(),
            e.admitted_from_queue);
  EXPECT_EQ(entry.find("evacuated")->as_number(), e.evacuated);
  EXPECT_EQ(entry.find("evacuation_migrations")->as_number(),
            e.evacuation_migrations);
  EXPECT_EQ(entry.find("parked")->as_number(), e.parked);
  EXPECT_EQ(entry.find("retry_admitted")->as_number(), e.retry_admitted);
  EXPECT_EQ(entry.find("shed_fault")->as_number(), e.shed_fault);
  EXPECT_EQ(entry.find("shed_overload")->as_number(), e.shed_overload);
  EXPECT_EQ(entry.find("degraded")->as_bool(), e.degraded);
  EXPECT_EQ(entry.find("mean_predicted_latency")->as_number(),
            e.mean_predicted_latency);
  EXPECT_EQ(entry.find("p99_predicted_latency")->as_number(),
            e.p99_predicted_latency);
}

TEST(FlightRecorder, RingKeepsTheLastKOldestFirst) {
  const Fixture fx = make_fixture();
  ServeEngine engine(make_topo(), fx.base.vnfs);
  engine.replay(fx.trace);
  const std::vector<EventOutcome>& log = engine.log();
  ASSERT_GT(log.size(), 4u);
  const obs::JsonValue doc = parse_dump(flight_dump(engine, 4));
  EXPECT_EQ(doc.find("recorded")->as_number(),
            static_cast<double>(log.size()));
  const obs::JsonValue::Array& entries = doc.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    expect_entry_is(entries[i], log[log.size() - 4 + i]);
  }
}

TEST(FlightRecorder, DumpJsonCarriesSchemaAndCounts) {
  const Fixture fx = make_fixture();
  ServeEngine engine(make_topo(), fx.base.vnfs);
  engine.replay(fx.trace);
  const std::vector<EventOutcome>& log = engine.log();
  ASSERT_GT(log.size(), 2u);
  const std::string text = flight_dump(engine, 2);
  const obs::JsonValue doc = parse_dump(text);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), kFlightSchema);
  EXPECT_EQ(doc.find("capacity")->as_number(), 2.0);
  EXPECT_EQ(doc.find("recorded")->as_number(),
            static_cast<double>(log.size()));
  const obs::JsonValue* entries = doc.find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  ASSERT_EQ(entries->as_array().size(), 2u);
  expect_entry_is(entries->as_array()[0], log[log.size() - 2]);
  expect_entry_is(entries->as_array()[1], log.back());
  // nfvpr.flight/1 key order: head first, then each entry's fields in the
  // run report's events_log order.
  std::size_t at = 0;
  for (const char* key :
       {"schema", "capacity", "recorded", "entries", "index", "t", "kind",
        "request", "decision", "migrations", "scale_outs", "scale_ins",
        "admitted_from_queue", "evacuated", "evacuation_migrations", "parked",
        "retry_admitted", "shed_fault", "shed_overload", "degraded",
        "mean_predicted_latency", "p99_predicted_latency"}) {
    const std::size_t pos = text.find('"' + std::string(key) + '"', at);
    ASSERT_NE(pos, std::string::npos) << key;
    at = pos;
  }
}

TEST(FlightRecorder, PartialRingDumpsInOrder) {
  const Fixture fx = make_fixture();
  ServeEngine engine(make_topo(), fx.base.vnfs);
  const obs::JsonValue empty = parse_dump(flight_dump(engine, 8));
  EXPECT_EQ(empty.find("recorded")->as_number(), 0.0);
  EXPECT_TRUE(empty.find("entries")->as_array().empty());

  for (std::size_t i = 0; i < 3; ++i) engine.on_event(fx.trace.events[i]);
  const obs::JsonValue doc = parse_dump(flight_dump(engine, 8));
  EXPECT_EQ(doc.find("capacity")->as_number(), 8.0);
  EXPECT_EQ(doc.find("recorded")->as_number(), 3.0);
  const obs::JsonValue::Array& entries = doc.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    expect_entry_is(entries[i], engine.log()[i]);
  }
}

// The checkpoint carries the log, so a resumed run dumps the same bytes as
// the uninterrupted one, at the resume point and at the end, even when the
// K-tail reaches back before the resume.
TEST(FlightRecorder, ResumedDumpEqualsTheUninterruptedRun) {
  const Fixture fx = make_fixture();
  ServeEngine uninterrupted(make_topo(), fx.base.vnfs);
  uninterrupted.replay(fx.trace);
  for (const std::size_t capacity : {16ul, 256ul}) {
    const std::string want = flight_dump(uninterrupted, capacity);
    for (const std::size_t kill : {1ul, 170ul, 599ul}) {
      ServeEngine first(make_topo(), fx.base.vnfs);
      for (std::size_t i = 0; i < kill; ++i) {
        first.on_event(fx.trace.events[i]);
      }
      std::uint64_t cursor = 0;
      ServeEngine resumed = restore_checkpoint(
          save_checkpoint_string(first, static_cast<std::uint64_t>(kill)),
          make_topo(), fx.base.vnfs, &cursor);
      EXPECT_EQ(flight_dump(resumed, capacity), flight_dump(first, capacity))
          << "kill " << kill;
      for (std::size_t i = kill; i < fx.trace.events.size(); ++i) {
        resumed.on_event(fx.trace.events[i]);
      }
      EXPECT_EQ(flight_dump(resumed, capacity), want)
          << "capacity " << capacity << ", kill " << kill;
    }
  }
}

}  // namespace
}  // namespace nfv::serve
