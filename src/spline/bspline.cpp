#include "spline/bspline.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tme {

namespace {

void check_order(int p) {
  if (p < 2) throw std::invalid_argument("bspline: order p must be >= 2");
  if (p > kMaxBsplineOrder) {
    throw std::invalid_argument("bspline: order p exceeds kMaxBsplineOrder");
  }
}

// bspline_weights_lanes for order P, or for the run-time order p_rt when
// P == 0: one body, whose loops the compiler unrolls when P is fixed.
template <int W, int P>
void weights_lanes(int p_rt, const double* u, long* m0, double* values,
                   double* derivs, std::size_t stride) {
  using V = simd::vec<double, W>;
  const int p = P > 0 ? P : p_rt;
  const V uv = V::load(u);
  const V fl = V::floor(uv);
  const V w = uv - fl;
  // Cox–de Boor on the uniform knots, specialised to one point per lane:
  // m[j + 1] = M_n(w + j) for j = 0..n-1, raised from n = 2 to p.  m[0] is a
  // zero sentinel for M_{n-1}(w - 1), and entries past n - 1 are still zero,
  // so the step needs no boundary cases.
  V m[kMaxBsplineOrder + 1];
  for (int j = 0; j <= p; ++j) m[j] = V::zero();
  m[1] = w;
  m[2] = V::broadcast(1.0) - w;
  // M_{p-1}(w + j - 1), kept for the derivative; M_1 is the unit box.
  V prev[kMaxBsplineOrder + 1];
  if (derivs != nullptr) {
    for (int j = 0; j <= p; ++j) prev[j] = V::zero();
    prev[1] = V::broadcast(1.0);
  }
  for (int n = 3; n <= p; ++n) {
    if (derivs != nullptr && n == p) {
      for (int j = 0; j <= p; ++j) prev[j] = m[j];
    }
    const V inv = V::broadcast(1.0 / (n - 1.0));
    const V vn = V::broadcast(static_cast<double>(n));
    for (int j = n - 1; j >= 0; --j) {
      const V vj = V::broadcast(static_cast<double>(j));
      m[j + 1] = inv * V::fma(vn - w - vj, m[j], (w + vj) * m[j + 1]);
    }
  }
  // Grid point m0 + k sees argument u - (m0 + k) = w + p - 1 - k, and
  // M_p'(w + j) = M_{p-1}(w + j) - M_{p-1}(w + j - 1).
  alignas(64) double lane[kMaxBsplineOrder][W];
  for (int k = 0; k < p; ++k) m[p - k].store(lane[k]);
  for (int l = 0; l < W; ++l) {
    for (int k = 0; k < p; ++k) values[l * stride + k] = lane[k][l];
  }
  if (derivs != nullptr) {
    for (int k = 0; k < p; ++k) (prev[p - k] - prev[p - 1 - k]).store(lane[k]);
    for (int l = 0; l < W; ++l) {
      for (int k = 0; k < p; ++k) derivs[l * stride + k] = lane[k][l];
    }
  }
  alignas(64) double fl_lane[W];
  fl.store(fl_lane);
  for (int l = 0; l < W; ++l) m0[l] = static_cast<long>(fl_lane[l]) - (p - 1);
}

}  // namespace

template <int W>
void bspline_weights_lanes(int p, const double* u, long* m0, double* values,
                           double* derivs, std::size_t stride) {
  // The hardware's order (paper Sec. III.B) runs with p fixed at compile
  // time; every other order runs the same body with p at run time.
  if (p == 6) {
    weights_lanes<W, 6>(p, u, m0, values, derivs, stride);
  } else {
    weights_lanes<W, 0>(p, u, m0, values, derivs, stride);
  }
}

template void bspline_weights_lanes<1>(int, const double*, long*, double*, double*,
                                       std::size_t);
template void bspline_weights_lanes<simd::kNativeWidth>(int, const double*, long*,
                                                        double*, double*,
                                                        std::size_t);

double bspline(int p, double u) {
  check_order(p);
  if (u <= 0.0 || u >= static_cast<double>(p)) return 0.0;
  // values[k] = M_p(u - (m0 + k)); M_p(u) itself is k = -m0.
  double values[kMaxBsplineOrder];
  long m0 = 0;
  bspline_weights_lanes<1>(p, &u, &m0, values, nullptr, 0);
  return values[-m0];
}

double bspline_derivative(int p, double u) {
  check_order(p);
  if (p == 2) {
    if (u <= 0.0 || u >= 2.0) return 0.0;
    return u < 1.0 ? 1.0 : -1.0;
  }
  return bspline(p - 1, u) - bspline(p - 1, u - 1.0);
}

double bspline_central(int p, double x) { return bspline(p, x + 0.5 * p); }

double bspline_central_derivative(int p, double x) {
  return bspline_derivative(p, x + 0.5 * p);
}

long bspline_weights(int p, double u, std::span<double> values,
                     std::span<double> derivs) {
  check_order(p);
  assert(values.size() >= static_cast<std::size_t>(p));
  const bool want_derivs = derivs.size() >= static_cast<std::size_t>(p);
  long m0 = 0;
  bspline_weights_lanes<1>(p, &u, &m0, values.data(),
                           want_derivs ? derivs.data() : nullptr, 0);
  return m0;
}

long bspline_weights_central(int p, double u, std::span<double> values,
                             std::span<double> derivs) {
  if (p % 2 != 0) {
    throw std::invalid_argument("bspline_weights_central: p must be even");
  }
  return bspline_weights(p, u, values, derivs) + p / 2;
}

double bspline_central_at_integer(int p, int m) {
  check_order(p);
  if (p % 2 != 0)
    throw std::invalid_argument("bspline_central_at_integer: p must be even");
  const int half = p / 2;
  if (m < -half || m > half) return 0.0;
  return bspline(p, static_cast<double>(m + half));
}

}  // namespace tme
