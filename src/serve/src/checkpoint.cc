#include "nfv/serve/checkpoint.h"

#include <charconv>
#include <cmath>
#include <deque>
#include <optional>
#include <ostream>
#include <ranges>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "nfv/common/histogram.h"
#include "nfv/obs/json.h"
#include "nfv/obs/lifecycle.h"

#include "field_lists.h"

namespace nfv::serve {

// ---------------------------------------------------------------------------
// The checkpoint's own field lists, in document order (field_lists.h holds
// the ones the run report shares, and their notation).  Writer and Reader
// walk the same lists, so each key is named exactly once.
// ---------------------------------------------------------------------------

/// The document head, shared with peek_checkpoint's summary.  The binary-
/// trace position is written only for binary traces, so text checkpoints
/// stay byte-identical to the pre-btrace layout.
template <Of<CheckpointInfo> Self, class V>
void fields(Self& h, V& v) {
  v("cursor", h.cursor);
  if (v.group(h.has_btrace_cursor, "trace_offset")) {
    v("trace_offset", h.btrace.byte_offset);
    // IEEE-754 bits of the last timestamp: a JSON number (a double) cannot
    // carry all 64 bits, so they travel as a fixed-width hex string.
    v.hex("trace_time_bits", h.btrace.time_bits);
  }
  v("vnf_count", h.vnf_count);
  v("node_count", h.node_count);
}

/// Telemetry and autoscale knobs.  Each group is written only when switched
/// on, so such checkpoints stay byte-identical to the formats that predate
/// them; peek_checkpoint's probe engine reads just these.
template <Of<ServeConfig> Self, class V>
void switch_fields(Self& c, V& v) {
  if (v.group(c.snapshot_every > 0.0, "snapshot_every")) {
    v("snapshot_every", c.snapshot_every);
    v.require(c.snapshot_every > 0.0,
              "config.snapshot_every must be a positive number");
    v("timeline_span", c.timeline_span);
  }
  if (v.group(c.lifecycle, "lifecycle")) v("lifecycle", c.lifecycle);
  if (v.group(c.autoscale.enabled(), "autoscale_policy")) {
    v("autoscale_policy", c.autoscale.policy);
    v("autoscale_interval", c.autoscale.scale_interval);
    v("autoscale_high", c.autoscale.high_watermark);
    v("autoscale_low", c.autoscale.low_watermark);
    v("autoscale_cooldown", c.autoscale.cooldown_windows);
    v("autoscale_step", c.autoscale.max_step);
    v("autoscale_alpha", c.autoscale.ewma_alpha);
    v("autoscale_forecast", c.autoscale.forecast_windows);
    v("autoscale_margin", c.autoscale.safety_margin);
  }
}

template <Of<ServeConfig> Self, class V>
void fields(Self& c, V& v) {
  v("headroom", c.headroom);
  v("rebalance_threshold", c.rebalance_threshold);
  v("migration_budget", c.migration_budget);
  v("queue_capacity", c.queue_capacity);
  v("link_latency", c.link_latency);
  v("overload_window", c.overload_window);
  v("overload_threshold", c.overload_threshold);
  v("degraded_headroom", c.degraded_headroom);
  v("retry_backoff_base", c.retry_backoff_base);
  v("retry_budget", c.retry_budget);
  switch_fields(c, v);
}

template <Of<AutoscaleTotals> Self, class V>
void fields(Self& t, V& v) {
  v("decisions", t.decisions);
  v("flaps", t.flaps);
  v("blocked_cooldown", t.blocked_cooldown);
}

template <Of<VnfPolicyState> Self, class V>
void fields(Self& s, V& v) {
  v("ewma", s.ewma);
  v("prev_ewma", s.prev_ewma);
  v("seeded", s.seeded);
  v("cooldown_until", s.cooldown_until);
  v("last_sign", s.last_sign);
  v("last_action_window", s.last_action_window);
}

/// One wait-histogram window as plain data.  Histogram keeps its buckets
/// private, so the writer copies them out and the reader rebuilds the
/// window through Histogram::restore().
struct HistWindow {
  std::vector<std::size_t> counts;
  std::size_t underflow = 0;
  std::size_t overflow = 0;
  bool has_samples = false;
  double min = 0.0;
  double max = 0.0;
};

template <Of<HistWindow> Self, class V>
void fields(Self& h, V& v) {
  v("counts", h.counts);
  v("underflow", h.underflow);
  v("overflow", h.overflow);
  if (v.group(h.has_samples, "min")) {
    v("min", h.min);
    v("max", h.max);
  }
}

/// Written as a compact positional tuple; the names only label errors.
template <Of<obs::LifecycleEvent> Self, class V>
void fields(Self& ev, V& v) {
  v("index", ev.event_index);
  v("t", ev.time);
  v.require(std::isfinite(ev.time),
            "lifecycle tuple time must be a finite number");
  v("request", ev.request);
  v("stage", ev.stage, obs::LifecycleStage::kDepart);
  v("node", ev.node);
  v("rung", ev.rung);
}

namespace {

[[noreturn]] void ckpt_fail(const std::string& what) {
  throw CheckpointParseError("checkpoint: " + what);
}

[[noreturn]] void field_fail(std::string_view key, const std::string& what) {
  ckpt_fail("field \"" + std::string(key) + "\" " + what);
}

/// Runs a validating call, turning its exception into a parse error.
template <class F>
void guarded(const char* what, F&& fn) {
  try {
    fn();
  } catch (const std::exception& ex) {
    ckpt_fail(what + std::string(ex.what()));
  }
}

// Largest integer each destination type takes.  The 64-bit cap stays below
// 2^64 so the double-to-integer cast is always defined.
constexpr double kU64Max = 1.8e19;
constexpr double kU32Max = 4294967295.0;

}  // namespace

// ---------------------------------------------------------------------------
// The reader: in the named namespace like the Writer, so a walk through
// either visitor finds the field lists above by ADL.
// ---------------------------------------------------------------------------

template <class C>
concept Keyed = requires { typename C::mapped_type; };

/// Reader visitor: typed, range-checked lookups in one JSON object (or one
/// positional tuple); every miss throws CheckpointParseError naming the key.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const obs::JsonValue& json, bool positional = false)
      : json_(json), positional_(positional) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(std::string_view key, T& x, std::uint64_t bound = kNoBound) {
    x = value<T>(at(key), key, bound);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(std::string_view key, E& x, E last) {
    const auto max = static_cast<std::underlying_type_t<E>>(last);
    x = static_cast<E>(value<std::uint64_t>(at(key), key, max + 1u));
  }
  /// Off runs omit the autoscale group, so a stored policy is never "off".
  void operator()(std::string_view key, ScalePolicy& x) {
    const obs::JsonValue& j = at(key);
    const auto policy =
        j.is_string() ? parse_scale_policy(j.as_string()) : std::nullopt;
    if (!policy || *policy == ScalePolicy::kOff) {
      field_fail(key, "must name a policy other than \"off\"");
    }
    x = *policy;
  }
  void operator()(std::string_view key, std::optional<double>& x) {
    const obs::JsonValue& j = at(key);
    if (!j.is_null() && !j.is_number()) {
      field_fail(key, "must be a number or null");
    }
    x = j.is_null() ? std::nullopt : std::optional<double>(j.as_number());
  }
  template <std::ranges::range C>
  void operator()(std::string_view key, C& xs,
                  std::uint64_t bound = kNoBound) {
    xs.clear();
    for (const obs::JsonValue& j : array(key)) {
      xs.insert(xs.end(), value<typename C::value_type>(j, key, bound));
    }
  }
  void hex(std::string_view key, std::uint64_t& x) {
    const obs::JsonValue& j = at(key);
    const std::string_view digits =
        j.is_string() ? std::string_view(j.as_string()) : std::string_view();
    const char* end = digits.data() + digits.size();
    if (digits.size() != 16 || digits.find_first_of("ABCDEF") != digits.npos ||
        std::from_chars(digits.data(), end, x, 16).ptr != end) {
      field_fail(key, "must be a 16-digit hex string");
    }
  }
  bool group(bool& flag, std::string_view key) const {
    flag = json_.find(key) != nullptr;
    return flag;
  }
  bool group(const bool& /*on*/, std::string_view key) const {
    return json_.find(key) != nullptr;
  }
  void require(bool ok, const char* what) const {
    if (!ok) ckpt_fail(what);
  }
  /// A stored value that must equal what the embedded config builds.
  template <class T>
  void expect(std::string_view key, T want, const char* what) {
    if (value<T>(at(key), key, kNoBound) != want) ckpt_fail(what);
  }

  template <class F>
  void object(std::string_view key, F&& fn, bool on = true) {
    if (!switched_on(key, on)) return;
    const obs::JsonValue& j = at(key);
    if (!j.is_object()) field_fail(key, "must be an object");
    Reader sub(j);
    fn(sub);
  }
  template <class C, class F = Fields>
  void objects(std::string_view key, C& items, F fn = {}, bool on = true,
               bool tuples = false) {
    items.clear();
    if (!switched_on(key, on)) return;
    for (const obs::JsonValue& j : array(key)) {
      if (tuples ? !j.is_array() : !j.is_object()) {
        field_fail(key, tuples ? "entries must be arrays"
                               : "entries must be objects");
      }
      Reader sub(j, tuples);
      if constexpr (Keyed<C>) {
        std::pair<typename C::key_type, typename C::mapped_type> item;
        fn(item, sub);
        if (!items.emplace(item.first, std::move(item.second)).second) {
          field_fail(key, "repeats an id");
        }
      } else {
        fn(items.emplace_back(), sub);
      }
      if (tuples && sub.next_ != j.as_array().size()) {
        field_fail(key, "entries have too many elements");
      }
    }
  }

  [[nodiscard]] std::size_t length(std::string_view key) {
    return array(key).size();
  }

 private:
  static constexpr std::uint64_t kNoBound = ~std::uint64_t{0};

  /// A section the embedded config switches off must be absent.
  bool switched_on(std::string_view key, bool on) const {
    if (!on && json_.find(key) != nullptr) {
      field_fail(key, "is present but the embedded config disables it");
    }
    return on;
  }
  const obs::JsonValue& at(std::string_view key) {
    if (positional_) {
      const obs::JsonValue::Array& tuple = json_.as_array();
      if (next_ == tuple.size()) field_fail(key, "is missing from the tuple");
      return tuple[next_++];
    }
    const obs::JsonValue* j = json_.find(key);
    if (j == nullptr) ckpt_fail("missing field \"" + std::string(key) + "\"");
    return *j;
  }
  const obs::JsonValue::Array& array(std::string_view key) {
    const obs::JsonValue& j = at(key);
    if (!j.is_array()) field_fail(key, "must be an array");
    return j.as_array();
  }

  /// One value checked against its destination type: uint8 fields are 0/1
  /// flags, int8 fields -1/0/1 directions, integers stay below `bound`.
  template <class T>
  static T value(const obs::JsonValue& j, std::string_view key,
                 std::uint64_t bound) {
    if constexpr (std::is_same_v<T, bool>) {
      if (!j.is_bool() && !j.is_number()) field_fail(key, "must be a boolean");
      return j.is_bool() ? j.as_bool() : j.as_number() != 0.0;
    } else {
      if (!j.is_number()) field_fail(key, "must be a number");
      const double d = j.as_number();
      if constexpr (std::is_floating_point_v<T>) {
        return d;
      } else if constexpr (std::is_signed_v<T>) {
        if (d != -1.0 && d != 0.0 && d != 1.0) {
          field_fail(key, "must be -1, 0, or 1");
        }
        return static_cast<T>(d);
      } else {
        const double max = sizeof(T) == 8   ? kU64Max
                           : sizeof(T) == 4 ? kU32Max
                                            : 1.0;
        if (!(d >= 0.0) || d != std::floor(d) || d > max) {
          field_fail(key, "must be an integer in [0, " +
                              std::to_string(static_cast<std::uint64_t>(max)) +
                              "]");
        }
        const auto x = static_cast<std::uint64_t>(d);
        if (x >= bound) {
          field_fail(key, "value " + std::to_string(x) + " is out of range");
        }
        return static_cast<T>(x);
      }
    }
  }

  const obs::JsonValue& json_;
  bool positional_;
  std::size_t next_ = 0;
};

namespace {

/// What a field list walks where the engine keeps state behind accessors:
/// the live value when writing, a scratch copy the reader fills.
template <class V, class T>
auto& walked(const T& live, T& scratch) {
  if constexpr (V::kReading) {
    return scratch;
  } else {
    return live;
  }
}

/// The wait histogram: its geometry must match the one the embedded config
/// builds, and its windows travel as HistWindows.
template <class H, class V>
void wait_hist_fields(H& wh, V& v) {
  const char* const geometry =
      "wait_hist geometry does not match the embedded config";
  v.expect("lo", wh.lo(), geometry);
  v.expect("hi", wh.hi(), geometry);
  v.expect("buckets", wh.bucket_count(), geometry);
  v.expect("span", wh.span(), geometry);
  std::vector<HistWindow> windows;
  if constexpr (!V::kReading) {
    for (std::size_t i = 0; i < wh.window_count(); ++i) {
      const Histogram& h = wh.window(i);
      HistWindow& w = windows.emplace_back();
      for (std::size_t b = 0; b < h.bucket_count(); ++b) {
        w.counts.push_back(h.bucket(b));
      }
      w.underflow = h.underflow();
      w.overflow = h.overflow();
      w.has_samples = h.count() > 0;
      if (w.has_samples) {
        w.min = h.min();
        w.max = h.max();
      }
    }
  }
  v.objects("windows", windows);
  if constexpr (V::kReading) {
    std::deque<Histogram> slots;
    for (const HistWindow& w : windows) {
      Histogram& h = slots.emplace_back(wh.lo(), wh.hi(), wh.bucket_count());
      guarded("invalid wait_hist window: ", [&] {
        h.restore(w.counts, w.underflow, w.overflow, w.min, w.max);
      });
      if ((h.count() > 0) != w.has_samples) {
        ckpt_fail("wait_hist window min/max presence mismatch");
      }
    }
    guarded("invalid wait_hist state: ", [&] { wh.restore(std::move(slots)); });
  }
}

obs::JsonValue parse_document(std::string_view text) {
  std::string error;
  auto doc = obs::parse_json(text, &error);
  if (!doc) ckpt_fail("not valid JSON: " + error);
  if (!doc->is_object()) ckpt_fail("document must be a JSON object");
  const std::string schema = doc->string_or("schema");
  if (schema != kCheckpointSchema) {
    ckpt_fail("unsupported schema '" + schema + "' (expected '" +
              std::string(kCheckpointSchema) + "')");
  }
  return std::move(*doc);
}

CheckpointInfo read_head(const obs::JsonValue& doc) {
  CheckpointInfo head;
  Reader v(doc);
  fields(head, v);
  if (!head.has_btrace_cursor && doc.find("trace_time_bits") != nullptr) {
    ckpt_fail("trace_offset and trace_time_bits must appear together");
  }
  return head;
}

void validate(const ServeConfig& config) {
  guarded("embedded config is invalid: ", [&] { config.validate(); });
}

}  // namespace

/// The engine's own field lists and their two walks; befriended by
/// ServeEngine for its private state.
struct CheckpointIo {
  template <class Self, class V>
  static void instance_fields(Self& inst, V& v, std::uint64_t vnfs,
                              std::uint64_t nodes, bool autoscale) {
    v("vnf", inst.vnf, vnfs);
    v("node", inst.node, nodes);
    v("seq", inst.seq);
    v("raw_load", inst.raw_load);
    v("effective_load", inst.effective_load);
    v("retired", inst.retired);
    // Written only when set, so autoscale-off runs keep the older layout.
    if (v.group(inst.draining, "draining")) {
      v.require(autoscale, "instance is draining but autoscaling is off");
      v("draining", inst.draining);
      v.require(!(inst.draining && inst.retired),
                "instance cannot be both draining and retired");
    }
    v("members", inst.members);
  }

  /// Shared by live, queued and retrying requests.
  template <class Id, class Self, class V>
  static void request_fields(Id& id, Self& r, V& v, std::uint64_t vnfs) {
    v("id", id);
    v("rate", r.rate);
    v("prob", r.prob);
    v("chain", r.chain, vnfs);
  }

  /// Counter values at the open of the current timeline window.
  template <class Self, class V>
  static void baseline_fields(Self& b, V& v, const bool autoscale) {
    v("events", b.events);
    v("admitted", b.admitted);
    v("admitted_from_queue", b.admitted_from_queue);
    v("retry_admitted", b.retry_admitted);
    v("rejected", b.rejected);
    v("shed", b.shed);
    v("shed_fault", b.shed_fault);
    v("shed_overload", b.shed_overload);
    v("evacuated_requests", b.evacuated_requests);
    v("parked", b.parked);
    v("migrations", b.migrations);
    if (v.group(autoscale, "scale_outs")) {
      v("scale_outs", b.scale_outs);
      v("scale_ins", b.scale_ins);
    }
  }

  template <class E, class V>
  static void autoscale_fields(E& e, V& v) {
    v("window", e.as_window_);
    v("instance_seconds", e.instance_seconds_);
    v("opened", e.as_opened_);
    v("drained", e.as_drained_);
    // The controller keeps its state private: the writer walks its
    // accessors, the reader fills copies and hands them to restore().
    AutoscaleTotals totals = e.scaler_->totals();
    std::vector<VnfPolicyState> states;
    fields(totals, v);
    v.objects("vnf_states", walked<V>(e.scaler_->vnf_states(), states));
    if constexpr (V::kReading) {
      v.require(states.size() == e.vnfs_.size(),
                "vnf_states must have vnf_count entries");
      e.scaler_->restore(std::move(states), totals);
    }
  }

  template <class E, class V>
  static void timeline_fields(E& e, V& v) {
    v("window_index", e.window_index_);
    v("win_served", e.win_served_);
    v("win_offered", e.win_offered_);
    v.object("win_base", [&](auto& b) {
      baseline_fields(e.win_base_, b, e.autoscale_on());
    });
    v.objects("pending_since", e.pending_since_, [](auto& entry, auto& p) {
      p("id", entry.first);
      p("since", entry.second);
    });
    v.object("wait_hist", [&](auto& h) { wait_hist_fields(*e.wait_hist_, h); });
    const std::uint64_t nodes = e.node_free_.size();
    v.objects("rows", e.timeline_rows_, [&](auto& r, auto& row) {
      fields(r, row);
      row.require(r.node_util.size() == nodes,
                  "timeline row node_util must have node_count entries");
    });
  }

  /// Everything after the config, in document order.
  template <class E, class V>
  static void state_fields(E& e, V& v) {
    const std::uint64_t vnfs = e.vnfs_.size();
    const std::uint64_t nodes = e.node_free_.size();
    v("last_time", e.last_time_);
    v("saw_event", e.saw_event_);
    v("next_seq", e.next_seq_);
    v("work", e.work_);
    v("served_integral", e.served_integral_);
    v("offered_integral", e.offered_integral_);
    v("degraded", e.degraded_);
    v("pressure_window", e.pressure_window_);
    v("node_free", e.node_free_);
    v("node_instances", e.node_instances_);
    v("node_up", e.node_up_);
    v.require(e.node_free_.size() == nodes &&
                  e.node_instances_.size() == nodes &&
                  e.node_up_.size() == nodes,
              "node arrays must have node_count entries");
    v.objects("instances", e.instances_, [&](auto& inst, auto& i) {
      instance_fields(inst, i, vnfs, nodes, e.autoscale_on());
    });
    v.objects("live", e.live_, [&](auto& entry, auto& l) {
      auto& [id, r] = entry;
      request_fields(id, r, l, vnfs);
      l("hops", r.hop_instance, e.instances_.size());
      l.require(r.hop_instance.size() == r.chain.size(),
                "live request hops/chain size mismatch");
    });
    v.objects("queue", e.queue_, [&](auto& p, auto& q) {
      request_fields(p.id, p, q, vnfs);
    });
    v.objects("retry", e.retry_queue_, [&](auto& p, auto& q) {
      request_fields(p.request.id, p.request, q, vnfs);
      q("not_before", p.not_before);
      q("attempts", p.attempts);
    });
    v("gone", e.gone_);  // std::set: already ascending
    v.object("totals", [&](auto& t) { fields(e.totals_, t); });
    v.objects("log", e.log_);
    v.object("autoscale", [&](auto& a) { autoscale_fields(e, a); },
             e.autoscale_on());
    v.object("timeline", [&](auto& t) { timeline_fields(e, t); },
             e.timeline_on());
    v.objects("lifecycle", e.lifecycle_, Fields{}, e.lifecycle_on(),
              /*tuples=*/true);
  }

  static void save(const ServeEngine& e, std::uint64_t cursor,
                   std::ostream& out, const BinaryTraceCursor* btrace) {
    CheckpointInfo head;
    head.cursor = cursor;
    head.has_btrace_cursor = btrace != nullptr;
    if (btrace != nullptr) head.btrace = *btrace;
    head.vnf_count = e.vnfs_.size();
    head.node_count = e.node_free_.size();
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("schema", kCheckpointSchema);
    Writer v(w);
    fields(head, v);
    v.object("config", [&](auto& c) { fields(e.config_, c); });
    state_fields(e, v);
    w.end_object();
    out << '\n';
  }

  /// Restores a freshly built engine whose config and universe came from
  /// the same document, then checks what no single field can.
  static void apply(ServeEngine& e, const obs::JsonValue& doc) {
    Reader v(doc);
    state_fields(e, v);
    // Each hop must sit on a live instance of its VNF, and each instance's
    // members must be exactly the ids whose hops point at it.  live_ runs
    // in ascending id order, so hops_at comes out sorted like members.
    std::vector<std::vector<std::uint32_t>> hops_at(e.instances_.size());
    for (const auto& [id, r] : e.live_) {
      for (std::size_t h = 0; h < r.hop_instance.size(); ++h) {
        const ServeEngine::Instance& inst = e.instances_[r.hop_instance[h]];
        if (inst.retired) ckpt_fail("live request bound to a retired instance");
        if (inst.vnf != r.chain[h]) {
          ckpt_fail("live request hop bound to another VNF's instance");
        }
        hops_at[r.hop_instance[h]].push_back(id);
      }
    }
    for (auto& act : e.active_of_vnf_) act.clear();
    for (std::uint32_t slot = 0; slot < e.instances_.size(); ++slot) {
      const ServeEngine::Instance& inst = e.instances_[slot];
      if (inst.members != hops_at[slot]) {
        ckpt_fail("instance " + std::to_string(slot) +
                  " members disagree with the live requests' hops");
      }
      if (!inst.retired) e.active_of_vnf_[inst.vnf].push_back(slot);
    }
  }
};

void save_checkpoint(const ServeEngine& engine, std::uint64_t cursor,
                     std::ostream& out, const BinaryTraceCursor* btrace) {
  CheckpointIo::save(engine, cursor, out, btrace);
}

std::string save_checkpoint_string(const ServeEngine& engine,
                                   std::uint64_t cursor,
                                   const BinaryTraceCursor* btrace) {
  std::ostringstream os;
  save_checkpoint(engine, cursor, os, btrace);
  return os.str();
}

CheckpointInfo peek_checkpoint(std::string_view text) {
  const obs::JsonValue doc = parse_document(text);
  CheckpointInfo info = read_head(doc);
  Reader head(doc);
  info.live_requests = head.length("live");
  info.logged_events = head.length("log");

  // Full structural sweep: re-run the state walk against a throwaway
  // engine sized from the document itself, so the fuzz target exercises
  // every branch of the deserializer without needing a real topology.
  if (info.vnf_count == 0 || info.vnf_count > 4096 ||
      info.node_count == 0 || info.node_count > 4096) {
    return info;  // no plausible engine shape to validate against
  }
  topo::Topology topo;
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(info.node_count));
  for (std::uint64_t v = 0; v < info.node_count; ++v) {
    ids.push_back(topo.add_compute(1.0));
  }
  // Star links: freeze() requires a connected compute graph, and the probe
  // never looks at latencies (the restored config pins link_latency).
  for (std::size_t i = 1; i < ids.size(); ++i) {
    topo.connect_nodes(ids[0], ids[i], 0.0);
  }
  topo.freeze();
  std::vector<workload::Vnf> vnfs(static_cast<std::size_t>(info.vnf_count));
  for (auto& f : vnfs) {
    f.demand_per_instance = 1.0;
    f.service_rate = 1.0;
  }
  ServeConfig probe_config;
  probe_config.link_latency = 0.0;
  // Honour the telemetry and autoscale switches so apply() walks (and
  // validates) those sections too.
  const obs::JsonValue* config_json = doc.find("config");
  if (config_json != nullptr && config_json->is_object()) {
    Reader c(*config_json);
    switch_fields(probe_config, c);
  }
  validate(probe_config);
  ServeEngine probe(std::move(topo), std::move(vnfs), probe_config);
  CheckpointIo::apply(probe, doc);
  return info;
}

ServeEngine restore_checkpoint(std::string_view text, topo::Topology topology,
                               std::vector<workload::Vnf> vnfs,
                               std::uint64_t* cursor,
                               BinaryTraceCursor* btrace, bool* has_btrace) {
  const obs::JsonValue doc = parse_document(text);
  const CheckpointInfo head = read_head(doc);
  ServeConfig config;
  Reader(doc).object("config", [&](auto& c) { fields(config, c); });
  validate(config);
  if (head.vnf_count != vnfs.size()) {
    ckpt_fail("vnf_count does not match the provided workload");
  }
  if (head.node_count != topology.compute_count()) {
    ckpt_fail("node_count does not match the provided topology");
  }

  ServeEngine engine(std::move(topology), std::move(vnfs), config);
  CheckpointIo::apply(engine, doc);
  if (cursor != nullptr) *cursor = head.cursor;
  if (has_btrace != nullptr) *has_btrace = head.has_btrace_cursor;
  if (btrace != nullptr && head.has_btrace_cursor) *btrace = head.btrace;
  return engine;
}

}  // namespace nfv::serve
