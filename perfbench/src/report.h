// Metric collection and the result line.
//
// Every metric carries a name ([A-Za-z0-9_.-], starting with a letter or a
// digit, at most 64 characters), a unit and the number of samples behind
// it.  print() writes one human-readable line per metric; result_json()
// is the single JSON object the benchmark prints as its last stdout line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

class Report {
 public:
  /// Throws std::invalid_argument on a bad name, a repeated name or a
  /// non-finite value.
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples);

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

  void print(std::FILE* out) const;

  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// "pooled <what>: p<pct> = <value> over <n> samples, <k> beyond it" for
/// the highest percentile the samples support (stats.h).
[[nodiscard]] std::string tail_summary(const char* what,
                                       const std::vector<double>& samples);

/// 64-bit FNV-1a, chained: digest(b, digest(a)) hashes a then b.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ull);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Compiler and flags the benchmark was built with.
[[nodiscard]] std::string_view build_flags();

/// Empty when the build is optimized and assert-free; otherwise why not.
[[nodiscard]] std::string build_refusal();

}  // namespace perfbench
