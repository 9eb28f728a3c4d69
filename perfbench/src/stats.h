// Order statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n sorted
// samples is the one at index ceil(p/100 · n) − 1, and n − ceil(p/100 · n)
// samples lie beyond it.  A tail percentile is reported only when at least
// kMinBeyond samples lie beyond it, so no tail figure rests on one sample.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of a non-empty sample set, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples lying strictly beyond the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of {50, 90, 99, 99.9, 99.99} that has at least
/// kMinBeyond samples beyond it (nullopt when even the median has not).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
[[nodiscard]] std::optional<Tail> highest_supported_percentile(
    const std::vector<double>& samples);

/// Middle value (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

}  // namespace perfbench
