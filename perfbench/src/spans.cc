#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name, const char* layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

std::map<std::string, std::int64_t> SpanRecorder::self_ns_by_layer() const {
  std::map<std::string, std::int64_t> out;
  const std::vector<std::int64_t> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i];
  }
  return out;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  os << "[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", ";
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f, ",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << "\"pid\": 1, \"tid\": 1, \"args\": {\"parent\": " << s.parent
       << "}}";
  }
  os << "\n]\n";
}

}  // namespace perfbench
