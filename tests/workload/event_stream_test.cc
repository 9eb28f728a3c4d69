#include "nfv/workload/event_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "nfv/common/rng.h"
#include "nfv/workload/btrace.h"
#include "nfv/workload/generator.h"

namespace nfv::workload {
namespace {

StreamEvent arrive(double t, std::uint32_t id, double rate,
                   std::vector<std::uint32_t> chain) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kArrive;
  e.request = id;
  e.rate = rate;
  e.delivery_prob = 0.98;
  e.chain = std::move(chain);
  return e;
}

StreamEvent depart(double t, std::uint32_t id) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kDepart;
  e.request = id;
  return e;
}

StreamEvent rate_change(double t, std::uint32_t id, double rate) {
  StreamEvent e;
  e.time = t;
  e.kind = StreamEventKind::kRateChange;
  e.request = id;
  e.rate = rate;
  return e;
}

EventTrace small_trace() {
  EventTrace trace;
  trace.vnf_count = 3;
  trace.events = {arrive(0.0, 0, 10.0, {0, 2}), arrive(0.5, 1, 5.0, {1}),
                  rate_change(1.0, 0, 20.0), depart(1.5, 1),
                  depart(2.0, 0)};
  return trace;
}

TEST(EventStream, RoundTripsThroughJson) {
  const EventTrace trace = small_trace();
  const std::string text = save_event_trace_string(trace);
  const EventTrace loaded = load_event_trace(text);
  EXPECT_EQ(loaded.vnf_count, trace.vnf_count);
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i], trace.events[i]) << "event " << i;
  }
}

TEST(EventStream, RejectsNonMonotonicTimestamps) {
  EventTrace trace = small_trace();
  trace.events[2].time = 0.1;  // before event 1 at t=0.5
  EXPECT_THROW(trace.validate(), TraceParseError);
  EXPECT_THROW(load_event_trace(save_event_trace_string(trace)),
               TraceParseError);
}

TEST(EventStream, RejectsLivenessViolations) {
  {
    EventTrace t = small_trace();
    t.events.push_back(depart(3.0, 7));  // never arrived
    EXPECT_THROW(t.validate(), TraceParseError);
  }
  {
    EventTrace t = small_trace();
    t.events.push_back(arrive(3.0, 0, 4.0, {1}));
    t.events.push_back(arrive(3.5, 0, 4.0, {1}));  // double arrival
    EXPECT_THROW(t.validate(), TraceParseError);
  }
  {
    EventTrace t = small_trace();
    t.events.push_back(rate_change(3.0, 1, 4.0));  // departed at 1.5
    EXPECT_THROW(t.validate(), TraceParseError);
  }
}

TEST(EventStream, RejectsOutOfRangeChainAndDuplicateVnfs) {
  {
    EventTrace t = small_trace();
    t.events[0].chain = {0, 5};  // vnf_count is 3
    EXPECT_THROW(t.validate(), TraceParseError);
  }
  {
    EventTrace t = small_trace();
    t.events[0].chain = {1, 1};
    EXPECT_THROW(t.validate(), TraceParseError);
  }
}

TEST(EventStream, RejectsWrongSchemaAndMalformedJson) {
  EXPECT_THROW(load_event_trace("not json at all"), TraceParseError);
  EXPECT_THROW(load_event_trace("{\"schema\": \"nfvpr.trace/9\"}"),
               TraceParseError);
  EXPECT_THROW(load_event_trace("{\"schema\": \"nfvpr.trace/1\"}"),
               TraceParseError);  // vnf_count missing
}

TEST(EventStreamGenerator, ProducesValidDeterministicTraces) {
  WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 20;
  Rng wrng(3);
  const Workload base = WorkloadGenerator(wcfg).generate(wrng);

  EventStreamConfig cfg;
  cfg.event_count = 300;
  Rng rng_a(11);
  Rng rng_b(11);
  const EventTrace a = EventStreamGenerator(base, cfg).generate(rng_a);
  const EventTrace b = EventStreamGenerator(base, cfg).generate(rng_b);
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.events.size(), cfg.event_count);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
  // A different seed must change the stream.
  Rng rng_c(12);
  const EventTrace c = EventStreamGenerator(base, cfg).generate(rng_c);
  EXPECT_NE(a.events, c.events);
}

TEST(EventStreamGenerator, MixesAllEventKinds) {
  WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 10;
  Rng wrng(5);
  const Workload base = WorkloadGenerator(wcfg).generate(wrng);
  EventStreamConfig cfg;
  cfg.event_count = 500;
  Rng rng(7);
  const EventTrace trace = EventStreamGenerator(base, cfg).generate(rng);
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t changes = 0;
  for (const StreamEvent& e : trace.events) {
    switch (e.kind) {
      case StreamEventKind::kArrive: ++arrivals; break;
      case StreamEventKind::kDepart: ++departures; break;
      case StreamEventKind::kRateChange: ++changes; break;
      case StreamEventKind::kNodeDown:
      case StreamEventKind::kNodeUp: break;  // churn disabled here
    }
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_GT(departures, 0u);
  EXPECT_GT(changes, 0u);
}

StreamEvent node_event(double t, StreamEventKind kind, std::uint32_t node) {
  StreamEvent e;
  e.time = t;
  e.kind = kind;
  e.node = node;
  return e;
}

EventTrace churn_trace() {
  EventTrace trace = small_trace();
  trace.events.insert(trace.events.begin() + 2,
                      node_event(0.7, StreamEventKind::kNodeDown, 1));
  trace.events.push_back(node_event(2.5, StreamEventKind::kNodeUp, 1));
  return trace;
}

TEST(EventStreamV2, NodeEventsRoundTripAsSchemaV2) {
  const EventTrace trace = churn_trace();
  EXPECT_NO_THROW(trace.validate());
  const std::string text = save_event_trace_string(trace);
  EXPECT_NE(text.find(kEventTraceSchemaV2), std::string::npos);
  const EventTrace loaded = load_event_trace(text);
  EXPECT_EQ(loaded, trace);
}

TEST(EventStreamV2, RequestOnlyTracesKeepTheV1Schema) {
  // Byte compatibility: a trace without node events must serialize with
  // the /1 schema tag exactly as before this extension existed.
  const std::string text = save_event_trace_string(small_trace());
  EXPECT_NE(text.find("\"schema\": \"nfvpr.trace/1\""), std::string::npos);
  EXPECT_EQ(text.find(kEventTraceSchemaV2), std::string::npos);
  EXPECT_NO_THROW(load_event_trace(text));
}

TEST(EventStreamV2, RejectsNodeEventsUnderTheV1Tag) {
  std::string text = save_event_trace_string(churn_trace());
  const auto pos = text.find("nfvpr.trace/2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "nfvpr.trace/1");
  EXPECT_THROW(load_event_trace(text), TraceParseError);
}

TEST(EventStreamV2, RejectsBrokenUpDownAlternation) {
  {
    EventTrace t = churn_trace();
    // Second down for a node that is already down.
    t.events.push_back(node_event(3.0, StreamEventKind::kNodeDown, 2));
    t.events.push_back(node_event(3.5, StreamEventKind::kNodeDown, 2));
    EXPECT_THROW(t.validate(), TraceParseError);
  }
  {
    EventTrace t = churn_trace();
    t.events.push_back(node_event(3.0, StreamEventKind::kNodeUp, 4));
    EXPECT_THROW(t.validate(), TraceParseError);  // up while up
  }
}

TEST(EventStreamGenerator, ChurnScheduleAlternatesAndValidates) {
  WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 10;
  Rng wrng(5);
  const Workload base = WorkloadGenerator(wcfg).generate(wrng);
  EventStreamConfig cfg;
  cfg.event_count = 400;
  cfg.churn_node_count = 3;
  cfg.node_mtbf = 2.0;
  cfg.node_mttr = 0.5;
  Rng rng(7);
  const EventTrace trace = EventStreamGenerator(base, cfg).generate(rng);
  EXPECT_NO_THROW(trace.validate());
  std::size_t downs = 0;
  std::size_t ups = 0;
  for (const StreamEvent& e : trace.events) {
    if (e.kind == StreamEventKind::kNodeDown) ++downs;
    if (e.kind == StreamEventKind::kNodeUp) ++ups;
  }
  EXPECT_GT(downs, 0u);
  // Every failure is closed by a repair (at the horizon if need be), so
  // the engine never ends a replay with phantom down nodes.
  EXPECT_EQ(downs, ups);

  // The churn knobs are validated like every other config field.
  EventStreamConfig bad = cfg;
  bad.node_mtbf = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.node_mttr = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(EventStreamGenerator, RateProfileShapesRatesDeterministically) {
  WorkloadConfig wcfg;
  wcfg.vnf_count = 5;
  wcfg.request_count = 10;
  Rng wrng(5);
  const Workload base = WorkloadGenerator(wcfg).generate(wrng);
  EventStreamConfig flat;
  flat.event_count = 400;
  EventStreamConfig shaped = flat;
  shaped.ramp_amplitude = 0.5;
  shaped.ramp_period = 4.0;
  shaped.burst_every = 3.0;
  shaped.burst_length = 1.0;
  shaped.burst_factor = 2.0;

  Rng rng_a(7);
  Rng rng_b(7);
  const EventTrace a = EventStreamGenerator(base, shaped).generate(rng_a);
  const EventTrace b = EventStreamGenerator(base, shaped).generate(rng_b);
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.events, b.events);  // same seed, same profile ⇒ same bytes

  // The profile multiplies the sampled rates but consumes no randomness,
  // so against a flat run with the same seed the event skeleton (times,
  // kinds, ids, chains) is identical and only rates differ.
  Rng rng_c(7);
  const EventTrace flat_trace =
      EventStreamGenerator(base, flat).generate(rng_c);
  ASSERT_EQ(a.events.size(), flat_trace.events.size());
  bool any_rate_differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, flat_trace.events[i].time) << "event " << i;
    EXPECT_EQ(a.events[i].kind, flat_trace.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].chain, flat_trace.events[i].chain)
        << "event " << i;
    if (a.events[i].rate != flat_trace.events[i].rate) {
      any_rate_differs = true;
      // The multiplier is bounded: ×(1 ± amplitude) × burst_factor.
      EXPECT_GT(a.events[i].rate, 0.0);
      EXPECT_LE(a.events[i].rate,
                flat_trace.events[i].rate * (1.0 + 0.5) * 2.0 + 1e-9);
      EXPECT_GE(a.events[i].rate,
                flat_trace.events[i].rate * (1.0 - 0.5) - 1e-9);
    }
  }
  EXPECT_TRUE(any_rate_differs);
}

TEST(EventStreamGenerator, RampBurstTracesRoundTripTextAndBinary) {
  WorkloadConfig wcfg;
  wcfg.vnf_count = 6;
  wcfg.request_count = 12;
  Rng wrng(9);
  const Workload base = WorkloadGenerator(wcfg).generate(wrng);
  EventStreamConfig cfg;
  cfg.event_count = 300;
  cfg.churn_node_count = 2;  // ramp + burst + churn together (/2 schema)
  cfg.node_mtbf = 2.0;
  cfg.node_mttr = 0.5;
  cfg.ramp_amplitude = 0.3;
  cfg.ramp_period = 5.0;
  cfg.burst_every = 4.0;
  cfg.burst_length = 1.5;
  cfg.burst_factor = 3.0;
  Rng rng(13);
  const EventTrace trace = EventStreamGenerator(base, cfg).generate(rng);
  EXPECT_NO_THROW(trace.validate());

  // Text: load(save(x)) == x, and save is a fixed point byte-for-byte.
  const std::string text = save_event_trace_string(trace);
  const EventTrace from_text = load_event_trace(text);
  EXPECT_EQ(from_text, trace);
  EXPECT_EQ(save_event_trace_string(from_text), text);

  // Binary: the same trace through nfvpr.btrace/1.
  const std::string bytes = save_binary_trace_string(trace);
  const EventTrace from_binary = load_binary_trace(bytes);
  EXPECT_EQ(from_binary, trace);
  EXPECT_EQ(save_binary_trace_string(from_binary), bytes);
}

TEST(EventStreamGenerator, RateProfileKnobsAreValidated) {
  EventStreamConfig cfg;
  cfg.ramp_amplitude = 0.5;
  cfg.ramp_period = 0.0;  // ramp on but no period
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.ramp_amplitude = 1.0;  // must stay < 1 (rates must stay positive)
  cfg.ramp_period = 2.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.burst_every = 2.0;
  cfg.burst_length = 0.0;  // bursts on but zero-length
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.burst_every = 2.0;
  cfg.burst_length = 3.0;  // longer than the cycle
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.burst_every = 2.0;
  cfg.burst_length = 1.0;
  cfg.burst_factor = 0.5;  // a "burst" may not shrink the rate
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.burst_every = 2.0;
  cfg.burst_length = 1.0;
  cfg.burst_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.ramp_amplitude = 0.9;
  cfg.ramp_period = 1.0;
  cfg.burst_every = 2.0;
  cfg.burst_length = 2.0;  // == burst_every is the allowed edge
  cfg.burst_factor = 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

/// Loads `text`, requires a TraceParseError, and returns its message.
std::string load_error(const std::string& text) {
  try {
    (void)load_event_trace(text);
  } catch (const TraceParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected TraceParseError";
  return {};
}

/// 1-based line of the first occurrence of `needle` in `text`.
std::size_t line_of(const std::string& text, const std::string& needle) {
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  return 1 + static_cast<std::size_t>(
                 std::count(text.data(), text.data() + pos, '\n'));
}

/// 1-based line of the `{` opening the event object that contains byte
/// `pos` — where the loader anchors validate-time (cross-event) errors.
std::size_t event_line_at(const std::string& text, std::size_t pos) {
  const auto brace = text.rfind('{', pos);
  EXPECT_NE(brace, std::string::npos);
  return 1 + static_cast<std::size_t>(
                 std::count(text.data(), text.data() + brace, '\n'));
}

TEST(EventStreamErrors, TokenErrorsCarryLineNumberAndToken) {
  // Corrupt one numeric value in a /1 trace; the loader must point at the
  // exact 1-based line and echo the offending token.
  std::string text = save_event_trace_string(small_trace());
  const std::string target = "\"rate\": 20";
  ASSERT_NE(text.find(target), std::string::npos);
  const std::size_t line = line_of(text, target);
  text.replace(text.find(target), target.size(), "\"rate\": bogus");
  const std::string msg = load_error(text);
  EXPECT_NE(msg.find("trace line " + std::to_string(line)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
}

TEST(EventStreamErrors, TruncatedInputReportsEndOfInput) {
  const std::string text = save_event_trace_string(small_trace());
  const std::string msg = load_error(text.substr(0, text.size() / 2));
  EXPECT_NE(msg.find("trace line "), std::string::npos) << msg;
  EXPECT_NE(msg.find("end of input"), std::string::npos) << msg;
}

TEST(EventStreamErrors, ValidateErrorsAreRemappedToTheEventLine) {
  // Cross-event violations are detected by EventTrace::validate after the
  // scan; the loader must still report the line of the offending event.
  std::string text = save_event_trace_string(small_trace());
  // Turn the final depart (the trace's last "request": 0 line) into a
  // depart of an id that never arrived.
  const std::string target = "\"request\": 0";
  const auto pos = text.rfind(target);
  ASSERT_NE(pos, std::string::npos) << text;
  const std::size_t line = event_line_at(text, pos);
  text.replace(pos, target.size(), "\"request\": 9");
  const std::string msg = load_error(text);
  EXPECT_NE(msg.find("trace line " + std::to_string(line)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("unknown request 9"), std::string::npos) << msg;
}

TEST(EventStreamErrors, MalformedV2NodeEventsCarryLineNumbers) {
  // A /2 node event with a broken alternation: node 1 goes down twice.
  std::string text = save_event_trace_string(churn_trace());
  const std::string target = "\"kind\": \"node_up\"";
  const auto pos = text.find(target);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t line = event_line_at(text, pos);
  text.replace(pos, target.size(), "\"kind\": \"node_down\"");
  const std::string msg = load_error(text);
  EXPECT_NE(msg.find("trace line " + std::to_string(line)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("already-down node"), std::string::npos) << msg;
}

TEST(EventStreamErrors, UnknownKeysAndBadStructureNameTheToken) {
  {
    const std::string msg = load_error("{\"schema\": [1]}");
    EXPECT_NE(msg.find("trace line 1"), std::string::npos) << msg;
  }
  {
    // An unterminated string inside the events array.
    std::string text = save_event_trace_string(small_trace());
    const auto pos = text.rfind("\"depart\"");
    ASSERT_NE(pos, std::string::npos);
    const std::string msg = load_error(text.substr(0, pos + 3));
    EXPECT_NE(msg.find("trace line "), std::string::npos) << msg;
  }
}

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(NFV_TRACES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Pulls every event out of a reader through one reused StreamEvent, the
/// way ServeEngine::replay does.
std::vector<StreamEvent> drain_reused(TraceReader& reader) {
  std::vector<StreamEvent> events;
  StreamEvent e;
  while (reader.next(e)) events.push_back(e);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.decoded(), events.size());
  return events;
}

TEST(TextTraceReader, DrainsExactlyTheLoadedFixtures) {
  for (const std::string stem :
       {"online_smoke", "chaos_smoke", "autoscale_smoke"}) {
    const std::string text = read_fixture(stem + ".trace.json");
    const EventTrace loaded = load_event_trace(text);
    ASSERT_FALSE(loaded.events.empty()) << stem;

    const auto reader = open_text_trace(text);
    EXPECT_EQ(reader->vnf_count(), loaded.vnf_count) << stem;
    EXPECT_EQ(drain_reused(*reader), loaded.events) << stem;

    // The same document with the events array ahead of "schema" and
    // "vnf_count" (the node kinds of a /2 trace depend on the schema).
    const auto events_at = text.find("\"events\"");
    ASSERT_NE(events_at, std::string::npos) << stem;
    const auto header_at = text.find("\"schema\"");
    const auto close_at = text.rfind('}');
    std::string header = text.substr(header_at, events_at - header_at);
    header.erase(header.find_last_of(','));  // the separator before "events"
    const std::string reordered =
        "{" + text.substr(events_at, close_at - events_at) + ", " + header +
        "}";
    const auto moved = open_text_trace(reordered);
    EXPECT_EQ(moved->vnf_count(), loaded.vnf_count) << stem;
    EXPECT_EQ(drain_reused(*moved), loaded.events) << stem;

    // skip(k) lands where k reads would.
    const std::size_t k = loaded.events.size() / 3;
    const auto skipped = open_text_trace(text);
    skipped->skip(k);
    EXPECT_EQ(skipped->decoded(), k);
    StreamEvent e;
    ASSERT_TRUE(skipped->next(e));
    EXPECT_EQ(e, loaded.events[k]) << stem;
    EXPECT_THROW(skipped->skip(loaded.events.size()), TraceParseError);
    EXPECT_TRUE(skipped->done());
  }
}

TEST(TextTraceReader, SkipValidatesTheSkippedPrefix) {
  // A depart of a never-arrived id at event 3: skipping past it fails as
  // reading it would, with the same line-anchored message.
  EventTrace t = small_trace();
  t.events[3].request = 9;
  const std::string text = save_event_trace_string(t);
  const auto reader = open_text_trace(text);
  std::string msg;
  try {
    reader->skip(4);
  } catch (const TraceParseError& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("trace event 3: depart for unknown request 9"),
            std::string::npos)
      << msg;
  EXPECT_EQ(msg, load_error(text));
  EXPECT_EQ(reader->decoded(), 3u);
  EXPECT_FALSE(reader->done());
}

}  // namespace
}  // namespace nfv::workload
