// Order statistics over raw per-call samples (never over histogram bins).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace stepbench {

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double q1 = 0.0;  // 25th percentile
  double q3 = 0.0;  // 75th percentile
  // The highest integer percentile that still has at least ten samples
  // beyond it (nearest rank), and its value; p50 when n < 20.
  double tail_percentile = 50.0;
  double tail = 0.0;

  double iqr() const { return q3 - q1; }
};

// Linearly interpolated quantile (q in [0, 1]) of the samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

// Throws std::invalid_argument on an empty sample set.
Summary summarize(const std::vector<double>& samples);

}  // namespace stepbench
