#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "quadrature/gauss_legendre.hpp"
#include "spline/bspline.hpp"
#include "spline/interpolation_coeffs.hpp"
#include "spline/two_scale.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

std::size_t Gridless_wrap(long i, std::size_t n) {
  long r = i % static_cast<long>(n);
  if (r < 0) r += static_cast<long>(n);
  return static_cast<std::size_t>(r);
}

TEST(BSpline, Order2IsHatFunction) {
  EXPECT_NEAR(bspline(2, 0.5), 0.5, 1e-15);
  EXPECT_NEAR(bspline(2, 1.0), 1.0, 1e-15);
  EXPECT_NEAR(bspline(2, 1.5), 0.5, 1e-15);
  EXPECT_EQ(bspline(2, -0.1), 0.0);
  EXPECT_EQ(bspline(2, 2.1), 0.0);
}

TEST(BSpline, Order4MatchesClosedFormOnFirstInterval) {
  // M_4(u) = u^3/6 on [0,1].
  for (const double u : {0.1, 0.4, 0.7, 0.999}) {
    EXPECT_NEAR(bspline(4, u), u * u * u / 6.0, 1e-14);
  }
}

TEST(BSpline, Order6ValueAtCentre) {
  // M_6(3) = 11/20 (central value of the quintic B-spline).
  EXPECT_NEAR(bspline(6, 3.0), 11.0 / 20.0, 1e-14);
}

TEST(BSpline, IntegerSamplesOrder6) {
  // M_6 at integers 1..5: 1/120, 26/120, 66/120, 26/120, 1/120.
  EXPECT_NEAR(bspline(6, 1.0), 1.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 2.0), 26.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 3.0), 66.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 4.0), 26.0 / 120.0, 1e-14);
  EXPECT_NEAR(bspline(6, 5.0), 1.0 / 120.0, 1e-14);
}

class BSplineOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(BSplineOrderSweep, PartitionOfUnity) {
  const int p = GetParam();
  for (const double x : {0.0, 0.123, 0.5, 0.987, 3.21}) {
    double sum = 0.0;
    for (int m = -2 * p; m <= 2 * p; ++m) sum += bspline(p, x - m + p * 0.5 + 4);
    // Equivalent: sum over integer shifts covering the support.
    sum = 0.0;
    for (int m = -3 * p; m <= 3 * p; ++m) sum += bspline(p, x - m);
    EXPECT_NEAR(sum, 1.0, 1e-13) << "p=" << p << " x=" << x;
  }
}

TEST_P(BSplineOrderSweep, NonNegativeAndSymmetric) {
  const int p = GetParam();
  for (double u = -1.0; u <= p + 1.0; u += 0.0625) {
    const double v = bspline(p, u);
    EXPECT_GE(v, 0.0);
    EXPECT_NEAR(v, bspline(p, p - u), 1e-14);  // symmetry about p/2
  }
}

TEST_P(BSplineOrderSweep, IntegratesToOne) {
  // Integrate knot interval by knot interval: on [k, k+1] the spline is a
  // polynomial of degree p-1, so a modest Gauss rule is exact.
  const int p = GetParam();
  double integral = 0.0;
  for (int k = 0; k < p; ++k) {
    integral += integrate_gl([p](double u) { return bspline(p, u); },
                             static_cast<double>(k), static_cast<double>(k + 1), 12);
  }
  EXPECT_NEAR(integral, 1.0, 1e-13);
}

TEST_P(BSplineOrderSweep, DerivativeMatchesFiniteDifference) {
  const int p = GetParam();
  const double eps = 1e-6;
  for (double u = 0.3; u < p - 0.2; u += 0.517) {
    const double fd = (bspline(p, u + eps) - bspline(p, u - eps)) / (2.0 * eps);
    EXPECT_NEAR(bspline_derivative(p, u), fd, 1e-7) << "p=" << p << " u=" << u;
  }
}

TEST_P(BSplineOrderSweep, WeightsMatchPointEvaluations) {
  const int p = GetParam();
  std::vector<double> w(static_cast<std::size_t>(p)), d(w);
  // Avoid exact integers: the one-sided derivative of the p = 2 hat
  // function is ambiguous at the knots.
  for (const double u : {0.0625, 0.25, 7.9, 123.456}) {
    const long m0 = bspline_weights(p, u, w, d);
    for (int k = 0; k < p; ++k) {
      const double arg = u - static_cast<double>(m0 + k);
      EXPECT_NEAR(w[static_cast<std::size_t>(k)], bspline(p, arg), 1e-13);
      EXPECT_NEAR(d[static_cast<std::size_t>(k)], bspline_derivative(p, arg), 1e-13);
    }
    // The weights are a complete partition: they sum to 1.
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-13);
    // Derivatives of a partition of unity sum to 0.
    EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0), 0.0, 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BSplineOrderSweep, ::testing::Values(2, 4, 6, 8, 10));

// The batched kernel: n coordinates evaluated W at a time (the tail through
// the W = 1 twin, as charge assignment does), at W = native and at W = 1,
// give bitwise the base index, weights and derivatives of
// bspline_weights_central per coordinate.  Covers integer u, u = 0 and u
// just below a 32-cell period, and counts around the vector width and the
// 64-atom chunk.
class BSplineLanesSweep : public ::testing::TestWithParam<int> {};

template <int W>
void eval_lanes(int p, const std::vector<double>& u, std::vector<long>& m0,
                std::vector<double>& w, std::vector<double>& d) {
  const std::size_t n = u.size(), up = static_cast<std::size_t>(p);
  m0.assign(n, 0);
  w.assign(n * up, 0.0);
  d.assign(n * up, 0.0);
  std::size_t a = 0;
  for (; a + W <= n; a += W) {
    bspline_weights_lanes<W>(p, &u[a], &m0[a], &w[a * up], &d[a * up], up);
  }
  for (; a < n; ++a) {
    bspline_weights_lanes<1>(p, &u[a], &m0[a], &w[a * up], &d[a * up], up);
  }
}

TEST_P(BSplineLanesSweep, BatchedKernelIsBitwiseTheScalarWeights) {
  const int p = GetParam();
  const std::size_t up = static_cast<std::size_t>(p);
  constexpr std::size_t W = simd::kNativeWidth;
  std::vector<double> pool = {0.0, 1.0, 7.0, 31.0, std::nextafter(32.0, 0.0), 16.5};
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.0, 32.0);
  while (pool.size() < 65) pool.push_back(dist(rng));
  for (const std::size_t n : {std::size_t{1}, W - 1, W, W + 1, std::size_t{63},
                              std::size_t{64}, std::size_t{65}}) {
    const std::vector<double> u(pool.begin(), pool.begin() + static_cast<long>(n));
    std::vector<long> m_native, m_one;
    std::vector<double> w_native, d_native, w_one, d_one;
    eval_lanes<W>(p, u, m_native, w_native, d_native);
    eval_lanes<1>(p, u, m_one, w_one, d_one);
    std::vector<double> w(up), d(up);
    for (std::size_t i = 0; i < n; ++i) {
      const long m0 = bspline_weights_central(p, u[i], w, d);
      EXPECT_EQ(m_native[i] + p / 2, m0) << "n=" << n << " u=" << u[i];
      EXPECT_EQ(m_one[i] + p / 2, m0) << "n=" << n << " u=" << u[i];
      const std::size_t bytes = up * sizeof(double);
      EXPECT_EQ(std::memcmp(&w_native[i * up], w.data(), bytes), 0) << "u=" << u[i];
      EXPECT_EQ(std::memcmp(&d_native[i * up], d.data(), bytes), 0) << "u=" << u[i];
      EXPECT_EQ(std::memcmp(&w_one[i * up], w.data(), bytes), 0) << "u=" << u[i];
      EXPECT_EQ(std::memcmp(&d_one[i * up], d.data(), bytes), 0) << "u=" << u[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BSplineLanesSweep, ::testing::Values(2, 4, 6, 8));

TEST(BSpline, RejectsOrdersAboveCapacity) {
  std::vector<double> w(kMaxBsplineOrder + 2);
  EXPECT_THROW(bspline(kMaxBsplineOrder + 1, 1.0), std::invalid_argument);
  EXPECT_THROW(bspline_weights(kMaxBsplineOrder + 1, 1.0, w, {}), std::invalid_argument);
  EXPECT_NO_THROW(bspline_weights(kMaxBsplineOrder, 1.0, w, {}));
}

TEST(BSplineCentral, SupportAndPeak) {
  EXPECT_EQ(bspline_central(6, -3.0), 0.0);
  EXPECT_EQ(bspline_central(6, 3.0), 0.0);
  EXPECT_NEAR(bspline_central(6, 0.0), 11.0 / 20.0, 1e-14);
  EXPECT_NEAR(bspline_central_at_integer(6, 1), 26.0 / 120.0, 1e-14);
  EXPECT_EQ(bspline_central_at_integer(6, 3), 0.0);
}

class TwoScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(TwoScaleSweep, CoefficientsSumToTwo) {
  const int p = GetParam();
  const std::vector<double> j = two_scale_coefficients(p);
  EXPECT_EQ(j.size(), static_cast<std::size_t>(p + 1));
  EXPECT_NEAR(std::accumulate(j.begin(), j.end(), 0.0), 2.0, 1e-14);
}

TEST_P(TwoScaleSweep, RefinementIdentityHolds) {
  // M_p(x) = sum_m J_m M_p(2x - m), paper Sec. III.A.
  const int p = GetParam();
  const int half = p / 2;
  const std::vector<double> j = two_scale_coefficients(p);
  for (double x = -0.5 * p; x <= 0.5 * p; x += 0.0937) {
    double rhs = 0.0;
    for (int m = -half; m <= half; ++m) {
      rhs += j[static_cast<std::size_t>(m + half)] * bspline_central(p, 2.0 * x - m);
    }
    EXPECT_NEAR(rhs, bspline_central(p, x), 1e-13) << "p=" << p << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, TwoScaleSweep, ::testing::Values(2, 4, 6, 8));

TEST(TwoScale, KnownValuesForOrder6) {
  const std::vector<double> j = two_scale_coefficients(6);
  EXPECT_NEAR(j[3], 20.0 / 32.0, 1e-15);  // J_0
  EXPECT_NEAR(j[2], 15.0 / 32.0, 1e-15);  // J_{-1}
  EXPECT_NEAR(j[4], 15.0 / 32.0, 1e-15);  // J_{+1}
  EXPECT_NEAR(j[1], 6.0 / 32.0, 1e-15);
  EXPECT_NEAR(j[0], 1.0 / 32.0, 1e-15);
}

TEST(TwoScale, RejectsOddOrder) {
  EXPECT_THROW(two_scale_coefficients(5), std::invalid_argument);
}

TEST(InterpolationCoeffs, OmegaInvertsBSplineSamples) {
  // (omega * b)_k = delta_k0 in the cyclic algebra, b_m = M_p^c(m).
  for (const int p : {4, 6, 8}) {
    const std::size_t n = 32;
    const std::vector<double> omega = interpolation_coefficients(p, n);
    for (std::size_t k = 0; k < n; ++k) {
      double conv = 0.0;
      for (int m = -p / 2; m <= p / 2; ++m) {
        const std::size_t idx =
            Gridless_wrap(static_cast<long>(k) - m, n);
        conv += bspline_central_at_integer(p, m) * omega[idx];
      }
      EXPECT_NEAR(conv, k == 0 ? 1.0 : 0.0, 1e-12) << "p=" << p << " k=" << k;
    }
  }
}

TEST(InterpolationCoeffs, OmegaPrimeMatchesOmegaConvolvedWithItself) {
  const int p = 6;
  const std::size_t n = 24;
  const std::vector<double> omega = interpolation_coefficients(p, n);
  const std::vector<double> op = omega_prime(p, n);
  for (std::size_t k = 0; k < n; ++k) {
    double conv = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      conv += omega[m] * omega[(k + n - m) % n];
    }
    EXPECT_NEAR(op[k], conv, 1e-12);
  }
}

TEST(InterpolationCoeffs, OmegaPrimeMatchesHardyTableOrder6) {
  // Hardy et al. 2016 Table I lists omega' for p = 6; the leading values are
  // omega'_0 ~ 5.2156, omega'_1 ~ -3.1415 (decaying alternating tail).
  // We check the defining property instead of transcribing the table, plus
  // the qualitative alternating-decay structure.
  const std::vector<double> op = omega_prime(6, 64);
  EXPECT_GT(op[0], 0.0);
  for (int k = 1; k < 8; ++k) {
    // Alternating sign and decaying magnitude.
    EXPECT_LT(op[static_cast<std::size_t>(k)] * op[static_cast<std::size_t>(k - 1)], 0.0);
    EXPECT_LT(std::abs(op[static_cast<std::size_t>(k)]),
              std::abs(op[static_cast<std::size_t>(k - 1)]));
  }
}

// Max error of the B-spline expansion of a Gaussian (paper Eq. 8), measured
// over a sample of point pairs on a periodic grid.
double gaussian_expansion_error(int p, std::size_t n, double alpha) {
  const std::vector<double> g = gaussian_grid_kernel(p, n, alpha);
  double worst = 0.0;
  for (const double x : {3.2, 7.77, 11.03}) {
    for (const double xp : {2.9, 9.5, 12.61}) {
      double approx = 0.0;
      for (long m = 0; m < static_cast<long>(n); ++m) {
        const double mx = bspline_central(p, x - static_cast<double>(m));
        if (mx == 0.0) continue;
        for (long mp = 0; mp < static_cast<long>(n); ++mp) {
          const double mxp = bspline_central(p, xp - static_cast<double>(mp));
          if (mxp == 0.0) continue;
          const std::size_t idx = Gridless_wrap(m - mp, n);
          approx += g[idx] * mx * mxp;
        }
      }
      const double exact = std::exp(-alpha * alpha * (x - xp) * (x - xp));
      worst = std::max(worst, std::abs(approx - exact));
    }
  }
  return worst;
}

TEST(InterpolationCoeffs, GaussianGridKernelReproducesGaussian) {
  // The expansion error is the intrinsic p = 6 interpolation error; it is
  // small and falls rapidly as the Gaussian widens relative to the grid.
  const double err_narrow = gaussian_expansion_error(6, 32, 0.7);
  const double err_wide = gaussian_expansion_error(6, 32, 0.35);
  EXPECT_LT(err_narrow, 5e-3);
  EXPECT_LT(err_wide, 2e-4);
  EXPECT_LT(err_wide, 0.25 * err_narrow);
}

TEST(InterpolationCoeffs, GaussianGridKernelImprovesWithOrder) {
  const double err_p4 = gaussian_expansion_error(4, 32, 0.5);
  const double err_p6 = gaussian_expansion_error(6, 32, 0.5);
  const double err_p8 = gaussian_expansion_error(8, 32, 0.5);
  EXPECT_LT(err_p6, err_p4);
  EXPECT_LT(err_p8, err_p6);
}

}  // namespace
}  // namespace tme
