// Streaming time-series telemetry for the serving engine (DESIGN.md §14).
//
// A timeline is a header line plus one JSONL record per event-time window
// of `snapshot_every` trace-time units.  Records are produced by the engine
// purely from event time — never wall clock — so the stream is
// byte-identical for any --threads and across checkpoint/resume.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nfv::obs {

inline constexpr std::string_view kTimelineSchema = "nfvpr.timeline/1";

/// Malformed timeline input (bad JSONL, wrong schema, missing fields).
/// The CLI maps it to exit code 2 like the other parse errors.
class TimelineParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One snapshot window [t_start, t_end).  Rates are window averages
/// (integral / width); counts are instantaneous at window close; the
/// counters are deltas over the window; wait_* are admission-wait
/// percentiles over a sliding span of recent windows.
struct TimelineRecord {
  std::uint64_t window = 0;
  double t_start = 0.0;
  double t_end = 0.0;
  std::uint64_t events = 0;
  double offered_rate = 0.0;
  double carried_rate = 0.0;
  double availability = 1.0;
  std::uint64_t live = 0;
  std::uint64_t queued = 0;
  std::uint64_t retrying = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admitted_from_queue = 0;
  std::uint64_t retry_admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t evacuated = 0;
  std::uint64_t parked = 0;
  std::uint64_t migrations = 0;
  bool degraded = false;
  std::uint64_t nodes_down = 0;
  std::vector<double> node_util;  ///< (cap - free)/cap per node; 0 when down
  std::uint64_t wait_count = 0;
  double wait_p50 = 0.0;
  double wait_p90 = 0.0;
  double wait_p99 = 0.0;
  /// Autoscaler extension (DESIGN.md §16): written only when the engine
  /// runs with --autoscale, optional on load, so autoscale-off streams
  /// stay byte-identical to the base format.
  bool has_autoscale = false;
  std::uint64_t instances = 0;   ///< active (non-retired) at window close
  std::uint64_t draining = 0;    ///< of those, draining for scale-in
  std::uint64_t scale_outs = 0;  ///< instances opened this window
  std::uint64_t scale_ins = 0;   ///< instances retired this window

  friend bool operator==(const TimelineRecord&,
                         const TimelineRecord&) = default;
};

/// The record's one field list, in serialization order (DESIGN.md §14.1).
/// write_timeline, load_timeline and the serve checkpoint's "rows" all
/// walk it: `v(key, member)` visits one field, and `v.group(flag, key)`
/// gates the autoscale extension — writers emit it when `flag` is set,
/// readers set `flag` to whether `key` is present.
template <class Self, class V>
  requires std::same_as<std::remove_const_t<Self>, TimelineRecord>
void fields(Self& r, V& v) {
  v("window", r.window);
  v("t_start", r.t_start);
  v("t_end", r.t_end);
  v("events", r.events);
  v("offered_rate", r.offered_rate);
  v("carried_rate", r.carried_rate);
  v("availability", r.availability);
  v("live", r.live);
  v("queued", r.queued);
  v("retrying", r.retrying);
  v("admitted", r.admitted);
  v("admitted_from_queue", r.admitted_from_queue);
  v("retry_admitted", r.retry_admitted);
  v("rejected", r.rejected);
  v("shed", r.shed);
  v("evacuated", r.evacuated);
  v("parked", r.parked);
  v("migrations", r.migrations);
  v("degraded", r.degraded);
  v("nodes_down", r.nodes_down);
  v("node_util", r.node_util);
  v("wait_count", r.wait_count);
  v("wait_p50", r.wait_p50);
  v("wait_p90", r.wait_p90);
  v("wait_p99", r.wait_p99);
  if (v.group(r.has_autoscale, "instances")) {
    v("instances", r.instances);
    v("draining", r.draining);
    v("scale_outs", r.scale_outs);
    v("scale_ins", r.scale_ins);
  }
}

/// A whole stream: the header metadata plus the records in window order.
struct TimelineDoc {
  double snapshot_every = 0.0;
  std::uint64_t nodes = 0;
  std::vector<TimelineRecord> records;

  friend bool operator==(const TimelineDoc&, const TimelineDoc&) = default;
};

/// Serializes as JSONL: a {"schema": "nfvpr.timeline/1", ...} header line,
/// then one compact record object per line.  Doubles print at %.17g so the
/// stream round-trips bit-exactly (the determinism contract depends on it).
void write_timeline(const TimelineDoc& doc, std::ostream& os);

/// Parses a serialized timeline; throws TimelineParseError on any
/// structural problem.
[[nodiscard]] TimelineDoc load_timeline(std::string_view text);

/// Whole-stream aggregates for `nfvpr analyze-timeline` and the run-report
/// regression gate.  Names reuse the differ's direction keywords
/// (availability → higher-better; shed/queued/latency → higher-worse).
struct TimelineAggregates {
  std::uint64_t windows = 0;
  double availability_min = 1.0;
  double availability_mean = 1.0;
  std::uint64_t worst_window = 0;  ///< window index of the availability min
  double worst_window_t_start = 0.0;
  double offered_rate_max = 0.0;
  double carried_rate_min = 0.0;
  std::uint64_t live_max = 0;
  std::uint64_t queued_max = 0;
  std::uint64_t retrying_max = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t rejected_total = 0;
  std::uint64_t parked_total = 0;
  std::uint64_t evacuated_total = 0;
  std::uint64_t migrations_total = 0;
  double wait_p99_latency_max = 0.0;
  std::uint64_t degraded_windows = 0;
  std::uint64_t nodes_down_max = 0;
};

[[nodiscard]] TimelineAggregates aggregate_timeline(
    const std::vector<TimelineRecord>& records);

/// Stable name → value view of the aggregates, in print order.  This is the
/// vocabulary `analyze-timeline --fail-on` accepts.
[[nodiscard]] std::vector<std::pair<std::string, double>> aggregate_values(
    const TimelineAggregates& agg);

}  // namespace nfv::obs
