#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name '" + name + "'");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("metric '" + name + "' reported twice");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric '" + name + "' is not finite");
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-34s %16.6g %-6s (n=%llu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
}

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string tail_summary(const char* what, const std::vector<double>& samples) {
  const auto tail = highest_supported_percentile(samples);
  if (!tail) return std::string("pooled ") + what + ": too few samples";
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "pooled %s: p%g = %.1f over %zu samples, %zu beyond it", what,
                tail->pct, tail->value, tail->samples, tail->beyond);
  return buf;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string_view build_flags() {
#ifdef PERFBENCH_FLAGS
  return PERFBENCH_FLAGS;
#else
  return "unknown";
#endif
}

std::string build_refusal() {
  std::string why;
#ifndef NDEBUG
  why += "assertions are enabled (NDEBUG undefined); ";
#endif
#ifndef __OPTIMIZE__
  why += "the build is not optimized; ";
#endif
  return why;
}

}  // namespace perfbench
