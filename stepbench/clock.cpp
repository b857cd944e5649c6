#include "clock.hpp"

#include <chrono>

namespace stepbench {

namespace {
volatile double g_multiplier = 1.0000001;  // read at run time: no folding
volatile double g_sink = 0.0;
}  // namespace

double clock_probe_ms() {
  constexpr int kIterations = 1'500'000;
  const double b = g_multiplier;
  double a = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) a = a * b + 1e-9;
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = a;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace stepbench
