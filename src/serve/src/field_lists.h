// The serve records' field lists and the visitor that writes them, shared
// by the checkpoint (checkpoint.cc) and the run report's "serve" section
// and flight dump (engine.cc).  Each key of ServeSummary and EventOutcome
// is named once, here; a new counter is one struct member plus one line in
// its list.  Checkpoints write enums as integers, reports as their
// to_string names — the Writer's only mode switch.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>

#include "nfv/obs/json.h"
#include "nfv/serve/engine.h"

namespace nfv::serve {

template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

// ---------------------------------------------------------------------------
// Field lists, in document order.  The visitors walk them as:
//   v(key, member[, bound])  one field; integer ids must stay below `bound`
//   v.group(flag, key)       optional fields, written when `flag` holds and
//                            read when `key` is present (a flag member is
//                            set to that presence)
//   v.require(ok, what)      a restore-time invariant; the writer skips it
// ---------------------------------------------------------------------------

/// ServeSummary's event counters, `events` … `scale_ins`.
template <Of<ServeSummary> Self, class V>
void counter_fields(Self& t, V& v) {
  v("events", t.events);
  v("arrivals", t.arrivals);
  v("admitted", t.admitted);
  v("admitted_from_queue", t.admitted_from_queue);
  v("rejected", t.rejected);
  v("departures", t.departures);
  v("rate_changes", t.rate_changes);
  v("shed", t.shed);
  v("migrations", t.migrations);
  v("rebalances", t.rebalances);
  v("max_migrations_per_rebalance", t.max_migrations_per_rebalance);
  v("scale_outs", t.scale_outs);
  v("scale_ins", t.scale_ins);
}

/// ServeSummary's fault-tolerance counters (DESIGN.md §13), `node_downs` …
/// `degraded_events`; the report nests them under "churn".
template <Of<ServeSummary> Self, class V>
void churn_fields(Self& t, V& v) {
  v("node_downs", t.node_downs);
  v("node_ups", t.node_ups);
  v("instances_closed", t.instances_closed);
  v("evacuated_requests", t.evacuated_requests);
  v("evacuation_migrations", t.evacuation_migrations);
  v("parked", t.parked);
  v("retry_admitted", t.retry_admitted);
  v("shed_fault", t.shed_fault);
  v("shed_overload", t.shed_overload);
  v("degradations", t.degradations);
  v("degraded_events", t.degraded_events);
}

/// The running totals as the checkpoint keeps them: both sublists, flat;
/// summary() derives the live-state figures.
template <Of<ServeSummary> Self, class V>
void fields(Self& t, V& v) {
  counter_fields(t, v);
  churn_fields(t, v);
}

/// One event decision: a checkpoint's "log" entry, a report's "events_log"
/// entry and a flight-dump entry.
template <Of<EventOutcome> Self, class V>
void fields(Self& o, V& v) {
  v("index", o.index);
  v("t", o.time);
  v("kind", o.kind, workload::StreamEventKind::kNodeUp);
  v("request", o.request);
  v("decision", o.decision, Decision::kNodeUp);
  v("migrations", o.migrations);
  v("scale_outs", o.scale_outs);
  v("scale_ins", o.scale_ins);
  v("admitted_from_queue", o.admitted_from_queue);
  v("evacuated", o.evacuated);
  v("evacuation_migrations", o.evacuation_migrations);
  v("parked", o.parked);
  v("retry_admitted", o.retry_admitted);
  v("shed_fault", o.shed_fault);
  v("shed_overload", o.shed_overload);
  v("degraded", o.degraded);
  v("mean_predicted_latency", o.mean_predicted_latency);
  v("p99_predicted_latency", o.p99_predicted_latency);
}

/// The default element walk of objects().
struct Fields {
  template <class T, class V>
  void operator()(T& item, V& v) const {
    fields(item, v);
  }
};

/// Writer visitor: makes the JsonWriter calls of one walk.
class Writer {
 public:
  static constexpr bool kReading = false;

  /// `enum_names`: enums as their to_string names (reports) instead of
  /// integers (checkpoints).  `positional`: bare values (a tuple) instead
  /// of key/value members.
  explicit Writer(obs::JsonWriter& w, bool enum_names = false,
                  bool positional = false)
      : w_(w), enum_names_(enum_names), positional_(positional) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(std::string_view key, T x, std::uint64_t /*bound*/ = 0) {
    name(key);
    put(x);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(std::string_view key, E x, E /*last*/) {
    if (enum_names_) {
      name(key);
      w_.value(to_string(x));
    } else {
      (*this)(key, static_cast<std::underlying_type_t<E>>(x));
    }
  }
  void operator()(std::string_view key, ScalePolicy x) {
    name(key);
    w_.value(to_string(x));
  }
  void operator()(std::string_view key, const std::optional<double>& x) {
    name(key);
    if (x.has_value()) {
      w_.value(*x);
    } else {
      w_.null();
    }
  }
  template <std::ranges::range R>
  void operator()(std::string_view key, const R& xs,
                  std::uint64_t /*bound*/ = 0) {
    name(key);
    w_.begin_array();
    for (const auto x : xs) put(x);
    w_.end_array();
  }
  void hex(std::string_view key, std::uint64_t x) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string digits(16, '0');
    for (std::size_t i = 16; i-- > 0; x >>= 4) digits[i] = kDigits[x & 0xf];
    name(key);
    w_.value(std::string_view(digits));
  }

  bool group(bool on, std::string_view /*key*/) const { return on; }
  void require(bool /*ok*/, const char* /*what*/) const {}
  template <class T>
  void expect(std::string_view key, T x, const char* /*what*/) {
    (*this)(key, x);
  }

  /// A nested object; `on` = false omits it (a switched-off section).
  template <class F>
  void object(std::string_view key, F&& fn, bool on = true) {
    if (!on) return;
    w_.key(key);
    w_.begin_object();
    fn(*this);
    w_.end_object();
  }
  /// An array of objects — or of positional tuples — one per item; `on`
  /// = false omits it.
  template <class C, class F = Fields>
  void objects(std::string_view key, const C& items, F fn = {},
               bool on = true, bool tuples = false) {
    if (!on) return;
    w_.key(key);
    w_.begin_array();
    for (const auto& item : items) {
      tuples ? w_.begin_array() : w_.begin_object();
      Writer sub(w_, enum_names_, tuples);
      fn(item, sub);
      tuples ? w_.end_array() : w_.end_object();
    }
    w_.end_array();
  }

 private:
  void name(std::string_view key) {
    if (!positional_) w_.key(key);
  }
  template <class T>
  void put(T x) {
    if constexpr (std::is_floating_point_v<T> || std::is_same_v<T, bool>) {
      w_.value(x);
    } else if constexpr (std::is_signed_v<T>) {
      w_.value(std::int64_t{x});
    } else {
      w_.value(std::uint64_t{x});
    }
  }

  obs::JsonWriter& w_;
  bool enum_names_;
  bool positional_;
};

}  // namespace nfv::serve
