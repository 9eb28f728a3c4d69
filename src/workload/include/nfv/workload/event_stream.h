// Timestamped request event streams for the online serving engine
// (nfv/serve): the versioned JSON trace formats "nfvpr.trace/1" and
// "nfvpr.trace/2" plus a seeded birth-death generator that turns an
// offline Workload's chain templates into a live
// arrival/departure/rate-change stream, optionally interleaved with
// MTBF/MTTR node churn.
//
// Schema ("nfvpr.trace/2"; "/1" is the same without node events):
//
//   {
//     "schema": "nfvpr.trace/2",
//     "vnf_count": 12,
//     "events": [
//       {"t": 0.013, "kind": "arrive", "request": 0, "rate": 12.5,
//        "delivery_prob": 0.98, "chain": [0, 2, 5]},
//       {"t": 0.71,  "kind": "rate_change", "request": 0, "rate": 20.0},
//       {"t": 0.80,  "kind": "node_down", "node": 3},
//       {"t": 0.94,  "kind": "depart", "request": 0},
//       {"t": 1.10,  "kind": "node_up", "node": 3}
//     ]
//   }
//
// Invariants (checked one event at a time, in O(live requests + down
// nodes) memory, by the text reader on every event it reads or skips and
// by EventTrace::validate over a whole trace):
//  * timestamps are non-decreasing (ties allowed, going backwards is not);
//  * "arrive" events carry a positive finite rate, a delivery probability
//    in (0, 1], and a non-empty chain of distinct VNF indices below
//    vnf_count (the paper's U_r^f is binary — a chain visits a VNF once);
//  * "depart"/"rate_change" reference a currently live request id, and an
//    "arrive" id must not already be live;
//  * "node_down"/"node_up" (schema "/2" only) carry a "node" id and
//    alternate per node: a node goes down only while up and vice versa.
//    The node id's range is checked by the consumer, which knows the
//    topology; a "/1" document containing node events fails to load.
//
// The serve hot path (`nfvpr serve`, ServeEngine::replay) pulls one event
// at a time through TraceReader from the text reader or the binary
// BinaryTraceDecoder (btrace.h) and never builds an EventTrace, so a text
// trace that breaks an invariant late fails there, after every event
// before it was returned.
//
// save_event_trace writes "/1" when the stream has no node events, so
// pre-churn traces keep round-tripping byte-identically under the old
// schema tag.
//
// All validation failures throw TraceParseError (NOT std::invalid_argument)
// so the CLI can map a malformed trace to its usage exit code (2) instead
// of the precondition exit code (5).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/workload/vnf.h"

namespace nfv::workload {

inline constexpr std::string_view kEventTraceSchema = "nfvpr.trace/1";
inline constexpr std::string_view kEventTraceSchemaV2 = "nfvpr.trace/2";

/// Thrown on malformed trace text or violated stream invariants.
class TraceParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class StreamEventKind : std::uint8_t {
  kArrive,      ///< a new request joins with (rate, delivery_prob, chain)
  kDepart,      ///< a live request leaves; its capacity is reclaimed
  kRateChange,  ///< a live request's λ_r changes to `rate`
  kNodeDown,    ///< compute node `node` fails; its instances are lost
  kNodeUp,      ///< compute node `node` recovers with full capacity
};

[[nodiscard]] std::string_view to_string(StreamEventKind kind);

/// True for NODE_DOWN / NODE_UP — events about infrastructure, not about a
/// request.
[[nodiscard]] constexpr bool is_node_event(StreamEventKind kind) {
  return kind == StreamEventKind::kNodeDown ||
         kind == StreamEventKind::kNodeUp;
}

/// One timestamped event of the stream.
struct StreamEvent {
  double time = 0.0;
  StreamEventKind kind = StreamEventKind::kArrive;
  std::uint32_t request = 0;
  double rate = 0.0;           ///< λ_r (arrive / rate_change)
  double delivery_prob = 1.0;  ///< P_r ∈ (0, 1] (arrive only)
  std::vector<std::uint32_t> chain;  ///< VNF indices (arrive only)
  std::uint32_t node = 0;      ///< compute node id (node_down / node_up)

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// A complete event stream plus the VNF universe its chains index into.
struct EventTrace {
  std::uint32_t vnf_count = 0;
  std::vector<StreamEvent> events;

  friend bool operator==(const EventTrace&, const EventTrace&) = default;

  /// Checks every invariant listed at the top of this header.  Throws
  /// TraceParseError with the offending event index on violation.
  void validate() const;
};

/// Pull interface over an event trace, one event per call: the text
/// reader (open_text_trace, below) and BinaryTraceDecoder (btrace.h).
class TraceReader {
 public:
  TraceReader() = default;
  TraceReader(const TraceReader&) = default;
  TraceReader(TraceReader&&) = default;
  TraceReader& operator=(const TraceReader&) = default;
  TraceReader& operator=(TraceReader&&) = default;
  virtual ~TraceReader() = default;

  /// The VNF universe the trace's chains index into.
  [[nodiscard]] virtual std::uint32_t vnf_count() const = 0;
  /// Events read or skipped so far.
  [[nodiscard]] virtual std::uint64_t decoded() const = 0;
  /// True once every event has been read or skipped.
  [[nodiscard]] virtual bool done() const = 0;

  /// Reads the next event into `out`, reusing its chain capacity.  Returns
  /// false at a clean end of the trace; throws TraceParseError on a
  /// malformed event, after every event before it was returned.
  virtual bool next(StreamEvent& out) = 0;
  /// Skips `n` events.  Throws TraceParseError past the end of the trace.
  virtual void skip(std::uint64_t n) = 0;
};

/// Opens a reader over an "nfvpr.trace/1" or "/2" document held in memory
/// (the caller keeps `text` alive).  It finds "schema", "vnf_count" and
/// the "events" array in any key order, then parses one event per next()
/// or skip() straight off the buffer and checks it against the invariants
/// above, holding only the live request ids and the down nodes.  Every
/// error names its 1-based "trace line N"; token errors name the token,
/// invariant violations the event index.  Throws TraceParseError on a
/// malformed document outside the events array.
[[nodiscard]] std::unique_ptr<TraceReader> open_text_trace(
    std::string_view text);

/// Reads every remaining event of `reader` into an EventTrace.
[[nodiscard]] EventTrace drain_trace(TraceReader& reader);

/// Parses and validates an "nfvpr.trace/1" or "/2" document: a drain of
/// the text reader.
[[nodiscard]] EventTrace load_event_trace(std::string_view text);

/// Serializes under kEventTraceSchema (round-trips through
/// load_event_trace bit-exactly).
void save_event_trace(const EventTrace& trace, std::ostream& out);
[[nodiscard]] std::string save_event_trace_string(const EventTrace& trace);

/// Knobs for EventStreamGenerator.
struct EventStreamConfig {
  std::size_t event_count = 500;
  /// Mean seconds between consecutive events (exponential).
  double mean_interarrival = 0.05;
  /// Birth-death equilibrium: the arrival probability decays as the live
  /// population approaches 2x this target, so the stream hovers around it.
  std::size_t target_population = 40;
  /// Fraction of events (with a live population) that are rate changes.
  double rate_change_fraction = 0.15;
  double arrival_rate_min = 1.0;   ///< λ ∈ [1, 100] pps, as in Sec. V-A.3
  double arrival_rate_max = 100.0;
  double delivery_prob = 0.98;     ///< P_r, uniform across requests
  /// > 0 switches rate sampling to the heavy-tailed lognormal trace model
  /// (LognormalTraceSampler) with this log-space spread; 0 = uniform.
  double rate_sigma_log = 0.0;

  /// Node churn (schema "/2"): > 0 interleaves MTBF/MTTR failure/repair
  /// events for nodes [0, churn_node_count) into the stream.  Each node
  /// alternates exponential up-times (mean node_mtbf) and down-times (mean
  /// node_mttr), starting up at t = 0; any node still down when the request
  /// stream ends gets a closing node_up.  0 = no churn, and the trace
  /// round-trips under schema "/1" exactly as before.
  std::size_t churn_node_count = 0;
  double node_mtbf = 0.0;  ///< mean seconds between failures (per node)
  double node_mttr = 0.0;  ///< mean seconds to repair (per node)

  /// Rate profile (generate-trace --ramp-*/--burst-*): a deterministic
  /// time-varying multiplier applied to every sampled arrival /
  /// rate-change rate, so a trace can exercise diurnal swings and load
  /// spikes (the autoscale bench input).  The multiplier is
  ///   (1 + ramp_amplitude · sin(2π t / ramp_period))
  ///     × (burst_factor while t mod burst_every < burst_length, else 1).
  /// All randomness still comes from the seeded rng; the profile itself is
  /// a pure function of event time, so traces stay reproducible and the
  /// serialized schema is unchanged.
  double ramp_amplitude = 0.0;  ///< ∈ [0, 1); 0 disables the ramp
  double ramp_period = 0.0;     ///< > 0 required when ramp_amplitude > 0
  double burst_every = 0.0;     ///< burst cycle length; 0 disables bursts
  double burst_length = 0.0;    ///< ∈ (0, burst_every]: burst duration
  double burst_factor = 1.0;    ///< ≥ 1: rate multiplier inside a burst

  void validate() const;
};

/// Deterministic (seeded) generator of event traces.  Chains are drawn
/// from the base workload's distinct request chains (the datacenter's
/// service-type templates); when the base workload has no requests, each
/// arrival samples a fresh random chain of distinct VNFs instead.
class EventStreamGenerator {
 public:
  /// `base` supplies the VNF universe and chain templates; it must have at
  /// least one VNF.  Throws std::invalid_argument on bad config.
  EventStreamGenerator(const Workload& base, EventStreamConfig config);

  /// Generates a valid trace; all randomness comes from `rng`.  Request
  /// ids are dense in arrival order (0, 1, 2, ...).
  [[nodiscard]] EventTrace generate(Rng& rng) const;

  [[nodiscard]] const EventStreamConfig& config() const { return config_; }

 private:
  std::uint32_t vnf_count_ = 0;
  std::vector<std::vector<std::uint32_t>> templates_;
  EventStreamConfig config_;
};

}  // namespace nfv::workload
