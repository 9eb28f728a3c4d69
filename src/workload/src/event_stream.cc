#include "nfv/workload/event_stream.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <system_error>
#include <unordered_set>

#include "nfv/common/error.h"
#include "nfv/obs/json.h"
#include "nfv/workload/trace.h"

namespace nfv::workload {

namespace {

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// Checks the invariants listed at the top of event_stream.h one event at
/// a time, in O(live requests + down nodes) memory.
class TraceValidator {
 public:
  explicit TraceValidator(std::uint32_t vnf_count) : vnf_count_(vnf_count) {}

  /// Records `e` as the stream's next event.  Returns what is wrong with
  /// it, or an empty string when it is valid.
  [[nodiscard]] std::string check(const StreamEvent& e) {
    if (!std::isfinite(e.time) || e.time < 0.0) {
      return "timestamp must be finite and non-negative";
    }
    if (e.time < last_time_) {
      std::ostringstream os;
      os << "non-monotonic timestamp " << e.time << " after " << last_time_;
      return os.str();
    }
    last_time_ = e.time;
    switch (e.kind) {
      case StreamEventKind::kArrive: {
        if (live_.contains(e.request)) {
          return "arrive for already-live request " +
                 std::to_string(e.request);
        }
        if (!finite_positive(e.rate)) return "arrival rate must be > 0";
        if (!(e.delivery_prob > 0.0) || e.delivery_prob > 1.0) {
          return "delivery_prob must be in (0, 1]";
        }
        if (e.chain.empty()) return "arrive needs a non-empty chain";
        std::unordered_set<std::uint32_t> seen;
        for (const std::uint32_t f : e.chain) {
          if (f >= vnf_count_) {
            return "chain references VNF " + std::to_string(f) +
                   " but vnf_count is " + std::to_string(vnf_count_);
          }
          if (!seen.insert(f).second) {
            return "chain repeats VNF " + std::to_string(f) +
                   " (U_r^f is binary)";
          }
        }
        live_.insert(e.request);
        return {};
      }
      case StreamEventKind::kDepart:
        if (!live_.erase(e.request)) {
          return "depart for unknown request " + std::to_string(e.request);
        }
        return {};
      case StreamEventKind::kRateChange:
        if (!live_.contains(e.request)) {
          return "rate_change for unknown request " +
                 std::to_string(e.request);
        }
        if (!finite_positive(e.rate)) return "new rate must be > 0";
        return {};
      case StreamEventKind::kNodeDown:
        if (!down_.insert(e.node).second) {
          return "node_down for already-down node " + std::to_string(e.node);
        }
        return {};
      case StreamEventKind::kNodeUp:
        if (!down_.erase(e.node)) {
          return "node_up for a node that is not down: " +
                 std::to_string(e.node);
        }
        return {};
    }
    return {};
  }

 private:
  std::uint32_t vnf_count_;
  double last_time_ = 0.0;
  std::unordered_set<std::uint32_t> live_;
  std::unordered_set<std::uint32_t> down_;
};

}  // namespace

std::string_view to_string(StreamEventKind kind) {
  switch (kind) {
    case StreamEventKind::kArrive:
      return "arrive";
    case StreamEventKind::kDepart:
      return "depart";
    case StreamEventKind::kRateChange:
      return "rate_change";
    case StreamEventKind::kNodeDown:
      return "node_down";
    case StreamEventKind::kNodeUp:
      return "node_up";
  }
  return "?";
}

void EventTrace::validate() const {
  TraceValidator validator(vnf_count);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (const std::string what = validator.check(events[i]); !what.empty()) {
      throw TraceParseError("trace event " + std::to_string(i) + ": " + what);
    }
  }
}

namespace {

constexpr bool is_json_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_json_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

constexpr double kMaxId =
    static_cast<double>(std::numeric_limits<std::uint32_t>::max());

// In-place scanner for the trace JSON subset: no tree, no per-token
// strings — std::from_chars straight off the input buffer, a reusable
// scratch only for the (rare) escaped string.  Lines are counted only on
// the cold error path.
class TextTraceReader final : public TraceReader {
 public:
  /// One pass over the document's structure finds the header fields in
  /// any key order.  The events array is only skipped here, because the
  /// node-event kinds are gated on a "schema" that may come after it.
  explicit TextTraceReader(std::string_view text)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()) {
    skip_ws();
    consume('{', "trace must be a JSON object");
    skip_ws();
    bool saw_schema = false;
    bool saw_vnf_count = false;
    const char* events = nullptr;
    if (!try_consume('}')) {
      for (;;) {
        const std::string_view key = parse_string("an object key");
        skip_ws();
        consume(':', "expected ':' after object key");
        skip_ws();
        if (key == "schema") {
          const std::string_view schema = parse_string("\"schema\"");
          v2_ = schema == kEventTraceSchemaV2;
          if (schema != kEventTraceSchema && !v2_) {
            err_plain("unsupported trace schema '" + std::string(schema) +
                      "' (expected '" + std::string(kEventTraceSchema) +
                      "' or '" + std::string(kEventTraceSchemaV2) + "')");
          }
          saw_schema = true;
        } else if (key == "vnf_count") {
          const double v = parse_number("vnf_count must be a positive integer");
          if (!(v >= 1.0) || v != std::floor(v) || v > kMaxId) {
            err_plain("vnf_count must be a positive integer");
          }
          vnf_count_ = static_cast<std::uint32_t>(v);
          saw_vnf_count = true;
        } else {
          if (key == "events") events = p_;
          skip_value();
        }
        skip_ws();
        if (try_consume(',')) {
          skip_ws();
          continue;
        }
        consume('}', "expected ',' or '}' in the trace object");
        break;
      }
    }
    if (!saw_schema) err_plain("trace is missing its \"schema\" field");
    if (!saw_vnf_count) err_plain("vnf_count must be a positive integer");
    if (events == nullptr) err_plain("trace needs an \"events\" array");
    skip_ws();
    if (p_ != end_) err("trailing content after the trace document");
    validator_ = TraceValidator(vnf_count_);
    p_ = events;
    consume('[', "trace needs an \"events\" array");
    skip_ws();
    done_ = try_consume(']');
  }

  [[nodiscard]] std::uint32_t vnf_count() const override {
    return vnf_count_;
  }
  [[nodiscard]] std::uint64_t decoded() const override { return index_; }
  [[nodiscard]] bool done() const override { return done_; }

  /// Parses and validates the next event; a validation error names the
  /// line the event starts on.
  bool next(StreamEvent& out) override {
    if (done_) return false;
    const char* start = p_;
    parse_event(out);
    if (const std::string what = validator_.check(out); !what.empty()) {
      err_at(start, "trace event " + std::to_string(index_) + ": " + what);
    }
    skip_ws();
    if (try_consume(',')) {
      skip_ws();
    } else {
      consume(']', "expected ',' or ']' in the events array");
      done_ = true;
    }
    ++index_;
    return true;
  }

  void skip(std::uint64_t n) override {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!next(skipped_)) err_plain("skip past the end of the trace");
    }
  }

 private:
  [[nodiscard]] std::size_t line_of(const char* pos) const {
    return 1 + static_cast<std::size_t>(std::count(begin_, pos, '\n'));
  }

  [[nodiscard]] std::string token_at() const {
    if (p_ == end_) return "end of input";
    const char* q = p_;
    const auto is_delim = [](char c) {
      return is_json_ws(c) || c == ',' || c == '}' || c == ']' || c == ':';
    };
    if (is_delim(*q)) {
      ++q;
    } else {
      while (q != end_ && q - p_ < 24 && !is_delim(*q)) ++q;
    }
    return "'" + std::string(p_, q) + "'";
  }

  [[noreturn]] void err_at(const char* pos, const std::string& what) const {
    throw TraceParseError("trace line " + std::to_string(line_of(pos)) +
                          ": " + what);
  }

  [[noreturn]] void err_plain(const std::string& what) const {
    err_at(p_, what);
  }

  [[noreturn]] void err(const std::string& what) const {
    err_plain(what + " near " + token_at());
  }

  void skip_ws() {
    while (p_ != end_ && is_json_ws(*p_)) ++p_;
  }

  bool try_consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void consume(char c, const char* what) {
    if (!try_consume(c)) err(what);
  }

  /// Strict JSON number grammar scanned first (std::from_chars alone would
  /// also accept "inf"/"nan" and non-JSON spellings), then converted off
  /// the input buffer.  `what` is the full failure message.
  double parse_number(const char* what) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !is_json_digit(*p_)) {
      p_ = start;
      err(what);
    }
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && is_json_digit(*p_)) ++p_;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !is_json_digit(*p_)) err("malformed number");
      while (p_ != end_ && is_json_digit(*p_)) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !is_json_digit(*p_)) err("malformed number");
      while (p_ != end_ && is_json_digit(*p_)) ++p_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(start, p_, value);
    if (ec != std::errc() || ptr != p_) {
      p_ = start;
      err("number out of range");
    }
    return value;
  }

  /// Returns a view into the input when the string has no escapes (the hot
  /// case for every key and kind); otherwise decodes into a reusable
  /// scratch and returns a view of that.
  std::string_view parse_string(const char* what) {
    if (p_ == end_ || *p_ != '"') {
      err(std::string("expected a string for ") + what);
    }
    ++p_;
    const char* start = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\') {
      if (static_cast<unsigned char>(*p_) < 0x20) {
        err("unescaped control character in string");
      }
      ++p_;
    }
    if (p_ == end_) err_plain("unterminated string");
    if (*p_ == '"') {
      const std::string_view sv(start, static_cast<std::size_t>(p_ - start));
      ++p_;
      return sv;
    }
    scratch_.assign(start, p_);
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) err_plain("unterminated string escape");
        const char c = *p_++;
        switch (c) {
          case '"': scratch_.push_back('"'); break;
          case '\\': scratch_.push_back('\\'); break;
          case '/': scratch_.push_back('/'); break;
          case 'b': scratch_.push_back('\b'); break;
          case 'f': scratch_.push_back('\f'); break;
          case 'n': scratch_.push_back('\n'); break;
          case 'r': scratch_.push_back('\r'); break;
          case 't': scratch_.push_back('\t'); break;
          case 'u': {
            if (end_ - p_ < 4) err_plain("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                err("invalid \\u escape digit");
            }
            if (code < 0x80) {
              scratch_.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              scratch_.push_back(static_cast<char>(0xc0 | (code >> 6)));
              scratch_.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              scratch_.push_back(static_cast<char>(0xe0 | (code >> 12)));
              scratch_.push_back(
                  static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              scratch_.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            --p_;
            err("unknown string escape");
        }
      } else {
        if (static_cast<unsigned char>(*p_) < 0x20) {
          err("unescaped control character in string");
        }
        scratch_.push_back(*p_++);
      }
    }
    if (p_ == end_) err_plain("unterminated string");
    ++p_;
    return scratch_;
  }

  /// Skips any JSON value without building anything.  Iterative (a depth
  /// counter, not recursion) so adversarially nested input cannot blow the
  /// stack; inside a skip, bracket kinds are not cross-checked — only the
  /// value's extent matters here, and the events array is parsed for real
  /// when it is read.
  void skip_value() {
    skip_ws();
    if (p_ == end_) err_plain("unexpected end of input in value");
    const char c = *p_;
    if (c == '"') {
      (void)parse_string("a skipped value");
      return;
    }
    if (c == '{' || c == '[') {
      std::size_t depth = 0;
      do {
        if (p_ == end_) err("unterminated value");
        const char ch = *p_;
        if (ch == '"') {
          (void)parse_string("a skipped value");
          continue;
        }
        if (ch == '{' || ch == '[') {
          ++depth;
        } else if (ch == '}' || ch == ']') {
          --depth;
        }
        ++p_;
      } while (depth > 0);
      return;
    }
    const char* start = p_;
    while (p_ != end_ && *p_ != ',' && *p_ != '}' && *p_ != ']' &&
           !is_json_ws(*p_)) {
      ++p_;
    }
    if (p_ == start) err("expected a value");
  }

  void parse_event(StreamEvent& out) {
    const auto fail_event = [&](const std::string& what) {
      err_plain("event " + std::to_string(index_) + ": " + what);
    };
    if (!try_consume('{')) fail_event("event must be an object");
    bool saw_t = false;
    bool saw_kind = false;
    bool saw_request = false;
    bool saw_node = false;
    bool saw_chain = false;
    double t = 0.0;
    double rate = 0.0;
    double prob = 1.0;
    double request = 0.0;
    double node = 0.0;
    StreamEventKind kind = StreamEventKind::kArrive;
    out.chain.clear();
    skip_ws();
    if (!try_consume('}')) {
      for (;;) {
        const std::string_view key = parse_string("an event key");
        skip_ws();
        consume(':', "expected ':' after event key");
        skip_ws();
        if (key == "t") {
          t = parse_number("event needs a numeric \"t\"");
          saw_t = true;
        } else if (key == "kind") {
          const std::string_view k = parse_string("\"kind\"");
          if (k == "arrive") {
            kind = StreamEventKind::kArrive;
          } else if (k == "depart") {
            kind = StreamEventKind::kDepart;
          } else if (k == "rate_change") {
            kind = StreamEventKind::kRateChange;
          } else if (k == "node_down" || k == "node_up") {
            if (!v2_) {
              fail_event("kind '" + std::string(k) + "' requires schema '" +
                         std::string(kEventTraceSchemaV2) + "'");
            }
            kind = k == "node_down" ? StreamEventKind::kNodeDown
                                    : StreamEventKind::kNodeUp;
          } else {
            fail_event("unknown kind '" + std::string(k) + "'");
          }
          saw_kind = true;
        } else if (key == "request") {
          request = parse_number("event needs a numeric \"request\" id");
          saw_request = true;
        } else if (key == "node") {
          node = parse_number("node event needs a numeric \"node\" id");
          saw_node = true;
        } else if (key == "rate") {
          rate = parse_number("\"rate\" must be a number");
        } else if (key == "delivery_prob") {
          prob = parse_number("\"delivery_prob\" must be a number");
        } else if (key == "chain") {
          consume('[', "arrive needs a \"chain\" array");
          skip_ws();
          out.chain.clear();
          if (!try_consume(']')) {
            for (;;) {
              const double h =
                  parse_number("chain entries must be non-negative integers");
              if (h < 0.0 || h != std::floor(h) || h > kMaxId) {
                fail_event("chain entries must be non-negative integers");
              }
              out.chain.push_back(static_cast<std::uint32_t>(h));
              skip_ws();
              if (try_consume(',')) {
                skip_ws();
                continue;
              }
              consume(']', "expected ',' or ']' in the chain array");
              break;
            }
          }
          saw_chain = true;
        } else {
          skip_value();
        }
        skip_ws();
        if (try_consume(',')) {
          skip_ws();
          continue;
        }
        consume('}', "expected ',' or '}' in the event object");
        break;
      }
    }
    if (!saw_t) fail_event("event needs a numeric \"t\"");
    if (!saw_kind) fail_event("unknown kind ''");
    out.time = t;
    out.kind = kind;
    out.request = 0;
    out.rate = 0.0;
    out.delivery_prob = 1.0;
    out.node = 0;
    if (is_node_event(kind)) {
      if (!saw_node) fail_event("node event needs a numeric \"node\" id");
      if (node < 0.0 || node != std::floor(node) || node > kMaxId) {
        fail_event("node id must be a non-negative integer");
      }
      out.node = static_cast<std::uint32_t>(node);
    } else {
      if (!saw_request) fail_event("event needs a numeric \"request\" id");
      if (request < 0.0 || request != std::floor(request) || request > kMaxId) {
        fail_event("request id must be a non-negative integer");
      }
      out.request = static_cast<std::uint32_t>(request);
      if (kind != StreamEventKind::kDepart) out.rate = rate;
      if (kind == StreamEventKind::kArrive) {
        out.delivery_prob = prob;
        if (!saw_chain) fail_event("arrive needs a \"chain\" array");
      }
    }
    if (kind != StreamEventKind::kArrive) out.chain.clear();
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  bool v2_ = false;
  bool done_ = false;
  std::uint32_t vnf_count_ = 0;
  std::uint64_t index_ = 0;  ///< events read or skipped
  TraceValidator validator_{0};
  StreamEvent skipped_;  ///< skip()'s parse target, capacity reused
  std::string scratch_;  ///< escaped-string decode buffer
};

}  // namespace

std::unique_ptr<TraceReader> open_text_trace(std::string_view text) {
  return std::make_unique<TextTraceReader>(text);
}

EventTrace drain_trace(TraceReader& reader) {
  EventTrace trace;
  trace.vnf_count = reader.vnf_count();
  StreamEvent e;
  while (reader.next(e)) trace.events.push_back(e);
  return trace;
}

EventTrace load_event_trace(std::string_view text) {
  TextTraceReader reader(text);
  return drain_trace(reader);
}

void save_event_trace(const EventTrace& trace, std::ostream& out) {
  const bool has_node_events =
      std::any_of(trace.events.begin(), trace.events.end(),
                  [](const StreamEvent& e) { return is_node_event(e.kind); });
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", has_node_events ? kEventTraceSchemaV2 : kEventTraceSchema);
  w.kv("vnf_count", std::uint64_t{trace.vnf_count});
  w.key("events");
  w.begin_array();
  for (const StreamEvent& e : trace.events) {
    w.begin_object();
    w.kv("t", e.time);
    w.kv("kind", to_string(e.kind));
    if (is_node_event(e.kind)) {
      w.kv("node", std::uint64_t{e.node});
      w.end_object();
      continue;
    }
    w.kv("request", std::uint64_t{e.request});
    if (e.kind != StreamEventKind::kDepart) w.kv("rate", e.rate);
    if (e.kind == StreamEventKind::kArrive) {
      w.kv("delivery_prob", e.delivery_prob);
      w.key("chain");
      w.begin_array();
      for (const std::uint32_t f : e.chain) w.value(std::uint64_t{f});
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

std::string save_event_trace_string(const EventTrace& trace) {
  std::ostringstream os;
  save_event_trace(trace, os);
  return os.str();
}

void EventStreamConfig::validate() const {
  NFV_REQUIRE(event_count >= 1);
  NFV_REQUIRE(mean_interarrival > 0.0);
  NFV_REQUIRE(target_population >= 1);
  NFV_REQUIRE(rate_change_fraction >= 0.0 && rate_change_fraction < 1.0);
  NFV_REQUIRE(arrival_rate_min > 0.0);
  NFV_REQUIRE(arrival_rate_max >= arrival_rate_min);
  NFV_REQUIRE(delivery_prob > 0.0 && delivery_prob <= 1.0);
  NFV_REQUIRE(rate_sigma_log >= 0.0);
  NFV_REQUIRE(std::isfinite(ramp_amplitude) && ramp_amplitude >= 0.0 &&
              ramp_amplitude < 1.0);
  if (ramp_amplitude > 0.0) {
    NFV_REQUIRE(std::isfinite(ramp_period) && ramp_period > 0.0);
  }
  NFV_REQUIRE(std::isfinite(burst_every) && burst_every >= 0.0);
  if (burst_every > 0.0) {
    NFV_REQUIRE(std::isfinite(burst_length) && burst_length > 0.0 &&
                burst_length <= burst_every);
    NFV_REQUIRE(std::isfinite(burst_factor) && burst_factor >= 1.0);
  }
  if (churn_node_count > 0) {
    NFV_REQUIRE(std::isfinite(node_mtbf) && node_mtbf > 0.0);
    NFV_REQUIRE(std::isfinite(node_mttr) && node_mttr > 0.0);
  }
}

EventStreamGenerator::EventStreamGenerator(const Workload& base,
                                           EventStreamConfig config)
    : vnf_count_(static_cast<std::uint32_t>(base.vnfs.size())),
      config_(config) {
  config_.validate();
  NFV_REQUIRE(!base.vnfs.empty());
  // Distinct chains of the base workload, in first-appearance order.
  for (const Request& r : base.requests) {
    std::vector<std::uint32_t> chain;
    chain.reserve(r.chain.size());
    for (const VnfId f : r.chain) chain.push_back(f.value());
    if (std::find(templates_.begin(), templates_.end(), chain) ==
        templates_.end()) {
      templates_.push_back(std::move(chain));
    }
  }
}

EventTrace EventStreamGenerator::generate(Rng& rng) const {
  EventTrace trace;
  trace.vnf_count = vnf_count_;
  trace.events.reserve(config_.event_count);

  const LognormalTraceSampler heavy_tail(
      {0.04, config_.rate_sigma_log, config_.arrival_rate_min,
       config_.arrival_rate_max});
  // Deterministic rate profile: a pure function of event time layered on
  // top of the seeded base sample (see EventStreamConfig).
  const auto profile = [&](double t) {
    constexpr double kTwoPi = 6.283185307179586;
    double m = 1.0;
    if (config_.ramp_amplitude > 0.0) {
      m *= 1.0 +
           config_.ramp_amplitude * std::sin(kTwoPi * t / config_.ramp_period);
    }
    if (config_.burst_every > 0.0 &&
        std::fmod(t, config_.burst_every) < config_.burst_length) {
      m *= config_.burst_factor;
    }
    return m;
  };
  const auto sample_rate = [&](Rng& r, double t) {
    const double base =
        config_.rate_sigma_log > 0.0
            ? heavy_tail.sample_rate(r)
            : r.uniform(config_.arrival_rate_min, config_.arrival_rate_max);
    return base * profile(t);
  };
  const auto sample_chain = [&](Rng& r) {
    if (!templates_.empty()) {
      return templates_[r.below(templates_.size())];
    }
    // No templates: a fresh chain of distinct VNFs in canonical order.
    const auto max_len = std::min<std::uint64_t>(6, vnf_count_);
    const auto len = static_cast<std::size_t>(r.uniform_int(
        1, static_cast<std::int64_t>(max_len)));
    std::vector<std::uint32_t> all(vnf_count_);
    for (std::uint32_t f = 0; f < vnf_count_; ++f) all[f] = f;
    r.shuffle(all);
    std::vector<std::uint32_t> chain(all.begin(),
                                     all.begin() + static_cast<long>(len));
    std::sort(chain.begin(), chain.end());
    return chain;
  };

  double time = 0.0;
  std::uint32_t next_id = 0;
  std::vector<std::uint32_t> live;
  const double target = static_cast<double>(config_.target_population);
  for (std::size_t i = 0; i < config_.event_count; ++i) {
    time += rng.exponential(1.0 / config_.mean_interarrival);
    StreamEvent e;
    e.time = time;
    if (!live.empty() && rng.chance(config_.rate_change_fraction)) {
      e.kind = StreamEventKind::kRateChange;
      e.request = live[rng.below(live.size())];
      e.rate = sample_rate(rng, time);
    } else {
      // Birth-death: arrivals dominate below the target population,
      // departures above it; equilibrium sits at `target`.
      const double p_arrive =
          live.empty()
              ? 1.0
              : std::clamp(1.0 - 0.5 * static_cast<double>(live.size()) /
                                     target,
                           0.05, 0.95);
      if (rng.chance(p_arrive)) {
        e.kind = StreamEventKind::kArrive;
        e.request = next_id++;
        e.rate = sample_rate(rng, time);
        e.delivery_prob = config_.delivery_prob;
        e.chain = sample_chain(rng);
        live.push_back(e.request);
      } else {
        e.kind = StreamEventKind::kDepart;
        const std::size_t pick = rng.below(live.size());
        e.request = live[pick];
        live[pick] = live.back();
        live.pop_back();
      }
    }
    trace.events.push_back(std::move(e));
  }

  if (config_.churn_node_count > 0) {
    // Per-node alternating up/down timelines over the request horizon,
    // merged in by timestamp.  Nodes start up; a node still down at the end
    // of the stream gets a closing node_up just past the horizon so every
    // generated trace satisfies the alternation invariant and leaves the
    // datacenter whole.
    const double horizon = time;
    std::vector<StreamEvent> churn;
    for (std::uint32_t n = 0;
         n < static_cast<std::uint32_t>(config_.churn_node_count); ++n) {
      double t = rng.exponential(1.0 / config_.node_mtbf);
      bool up = true;
      while (t <= horizon) {
        StreamEvent e;
        e.time = t;
        e.kind = up ? StreamEventKind::kNodeDown : StreamEventKind::kNodeUp;
        e.node = n;
        churn.push_back(std::move(e));
        up = !up;
        t += rng.exponential(up ? 1.0 / config_.node_mtbf
                                : 1.0 / config_.node_mttr);
      }
      if (!up) {
        StreamEvent e;
        e.time = horizon;
        e.kind = StreamEventKind::kNodeUp;
        e.node = n;
        churn.push_back(std::move(e));
      }
    }
    std::sort(churn.begin(), churn.end(),
              [](const StreamEvent& a, const StreamEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.node != b.node) return a.node < b.node;
                return a.kind < b.kind;  // down precedes up per node
              });
    const std::size_t split = trace.events.size();
    trace.events.insert(trace.events.end(),
                        std::make_move_iterator(churn.begin()),
                        std::make_move_iterator(churn.end()));
    // Stable on ties: request events stay ahead of node events.
    std::inplace_merge(
        trace.events.begin(),
        trace.events.begin() + static_cast<std::ptrdiff_t>(split),
        trace.events.end(),
        [](const StreamEvent& a, const StreamEvent& b) {
          return a.time < b.time;
        });
  }
  return trace;
}

}  // namespace nfv::workload
