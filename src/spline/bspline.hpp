// Cardinal B-splines.
//
// Conventions follow Essmann et al. (SPME, 1995): M_p(u) is the order-p
// (degree p-1) uniform B-spline supported on [0, p].  The paper's "central
// B-spline" is the shifted copy M_p^c(x) = M_p(x + p/2) supported on
// [-p/2, p/2]; both views are provided.  Order p must be in
// [2, kMaxBsplineOrder]; the TME / two-scale machinery additionally requires
// p even.
#pragma once

#include <cstddef>
#include <span>

#include "util/simd.hpp"

namespace tme {

// Largest order the fixed-capacity, allocation-free kernels below accept
// (every entry point throws std::invalid_argument above it; the hardware
// fixes p = 6).
inline constexpr int kMaxBsplineOrder = 16;

// M_p(u) for u anywhere on the real line (0 outside [0, p]).
double bspline(int p, double u);

// d/du M_p(u).
double bspline_derivative(int p, double u);

// Central B-spline M_p(x + p/2), supported on [-p/2, p/2].
double bspline_central(int p, double x);
double bspline_central_derivative(int p, double x);

// The one B-spline weight kernel, evaluated for W coordinates at a time (one
// per SIMD lane; W = 1 is its scalar twin).  For lane l it writes
//   values[l * stride + k] = M_p(u[l] - (m0[l] + k)),  k = 0..p-1,
// and, when derivs != nullptr, the derivatives at the same offsets, and sets
// m0[l] = floor(u[l]) - p + 1.  It does no allocation and no checking: p
// must be in [2, kMaxBsplineOrder] and every u[l] finite.  Each recurrence
// step is an explicit fma times the rounded reciprocal 1 / (n - 1),
//   M_n(w + j) = (1 / (n - 1)) * fma(n - w - j, M_{n-1}(w + j - 1),
//                                    (w + j) * M_{n-1}(w + j)),
// and every lane runs the W = 1 op sequence, so a lane's results are bitwise
// those of the W = 1 instance for the same u.  Instantiated for W = 1 and
// W = simd::kNativeWidth.
template <int W>
void bspline_weights_lanes(int p, const double* u, long* m0, double* values,
                           double* derivs, std::size_t stride);

extern template void bspline_weights_lanes<1>(int, const double*, long*, double*,
                                              double*, std::size_t);
extern template void bspline_weights_lanes<simd::kNativeWidth>(int, const double*,
                                                               long*, double*,
                                                               double*, std::size_t);

// Charge-assignment weights for an atom at normalised coordinate u (grid
// units).  Fills values[k] = M_p(u - (m0 + k)) and derivs[k] with the
// derivative, for k = 0..p-1, where m0 = floor(u) - p + 1 is the leftmost
// grid point that the atom touches.  Returns m0.
//
// values/derivs must have size >= p.  derivs may be empty when not needed.
// The W = 1 instance of bspline_weights_lanes.
long bspline_weights(int p, double u, std::span<double> values,
                     std::span<double> derivs);

// Central-convention variant (even p only): identical weight values, but the
// base index m0 = floor(u) - p/2 + 1 positions them symmetrically around the
// atom, i.e. values[k] = M_p^c(u - (m0 + k)).  This is the convention of the
// paper's Eq. 12 and the one the TME's restriction/prolongation requires —
// the Essmann-shifted basis differs by p/2, which does not commute with the
// factor-2 downsampling of the grid hierarchy.
long bspline_weights_central(int p, double u, std::span<double> values,
                             std::span<double> derivs);

// Exact values of the central B-spline at the integers, index m in
// [-p/2, p/2]; returns M_p^c(m) (zero at the endpoints for p even).
double bspline_central_at_integer(int p, int m);

}  // namespace tme
