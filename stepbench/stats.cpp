#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stepbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Summary summarize(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("summarize: no samples");
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  Summary s;
  s.n = sorted.size();
  s.p50 = quantile(sorted, 0.5);
  s.q1 = quantile(sorted, 0.25);
  s.q3 = quantile(sorted, 0.75);

  // Nearest rank r = ceil(P n / 100) leaves n - r samples above the value.
  constexpr std::size_t kBeyond = 10;
  s.tail_percentile = 50.0;
  s.tail = s.p50;
  for (int pct = 99; pct >= 50; --pct) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(pct) * static_cast<double>(s.n) / 100.0));
    if (rank >= 1 && s.n - rank >= kBeyond) {
      s.tail_percentile = pct;
      s.tail = sorted[rank - 1];
      break;
    }
  }
  return s;
}

}  // namespace stepbench
