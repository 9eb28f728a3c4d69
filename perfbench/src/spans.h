// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer's public functions
// in a span (name, layer, start, end, parent).  Spans are appended to a
// vector while the run goes and written out once at the end as Chrome
// trace-event JSON — the format obs::Tracer and the lifecycle stream use —
// with each span's layer as "cat" and its parent index under "args".
//
// A layer's self time is the duration of its spans minus the part of each
// span's interval its direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< string literal, e.g. "serve.on_event"
  const char* layer = "";  ///< "workload" | "serve" | "scheduling" | ...
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, const char* layer);
  /// Closes the innermost open span, which must be `index`.
  void close(std::int32_t index);

  /// Appends an already-measured span (for callers that time themselves).
  void add(const Span& span) { spans_.push_back(span); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, in nanoseconds.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_layer() const;

  /// Chrome trace-event JSON array ("ph": "X", µs timestamps).
  void write_chrome_json(std::ostream& os) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it.  Exposed for the unit tests.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// RAII span on an optional recorder: a null recorder records nothing and
/// reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
