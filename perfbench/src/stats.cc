#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank(std::size_t n, double p) {
  // ceil(p/100 · n), computed on the integer grid so that e.g. p = 99,
  // n = 1000 lands exactly on 990 despite binary rounding of 0.99.
  const double exact = p * static_cast<double>(n) / 100.0;
  auto r = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: empty samples or p out of range");
  }
  const std::size_t idx = rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - rank(n, p);
}

std::optional<Tail> highest_supported_percentile(
    const std::vector<double>& samples) {
  std::optional<Tail> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const std::size_t beyond = samples_beyond(samples.size(), p);
    if (beyond < kMinBeyond) break;
    best = Tail{p, percentile(samples, p), beyond, samples.size()};
  }
  return best;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: empty samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
