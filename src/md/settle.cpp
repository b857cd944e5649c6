#include "md/settle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tme {

double ConstraintParams::d_hh() const {
  return 2.0 * d_oh * std::sin(0.5 * theta_hoh_deg * M_PI / 180.0);
}

WaterConstraints::WaterConstraints(const Topology& topology,
                                   std::span<const double> masses,
                                   const ConstraintParams& params)
    : params_(params) {
  if (topology.rigid_waters().empty()) return;
  waters_.reserve(topology.rigid_waters().size());
  for (const RigidWater& w : topology.rigid_waters()) {
    waters_.push_back({w.o, w.h1, w.h2});
  }
  m_o_ = masses[waters_.front().o];
  m_h_ = masses[waters_.front().h1];
  for (const Triplet& t : waters_) {
    if (masses[t.o] != m_o_ || masses[t.h1] != m_h_ || masses[t.h2] != m_h_) {
      throw std::invalid_argument("WaterConstraints: SETTLE requires uniform water masses");
    }
  }
  // Canonical triangle (Miyamoto & Kollman): O on the +y axis, H's below.
  //   ra = |COM - O|, rb = distance from COM to the HH line, rc = d_HH / 2.
  const double d_hh = params.d_hh();
  const double height = std::sqrt(params.d_oh * params.d_oh - 0.25 * d_hh * d_hh);
  const double total = m_o_ + 2.0 * m_h_;
  ra_ = 2.0 * m_h_ * height / total;
  rb_ = height - ra_;
  rc_ = 0.5 * d_hh;
}

void WaterConstraints::apply_positions(const Box& box, std::span<const Vec3> previous,
                                       std::vector<Vec3>& positions,
                                       std::vector<Vec3>* velocities, double dt,
                                       ConstraintMethod method) const {
  parallel_for(0, waters_.size(), [&](std::size_t w) {
    const Triplet& t = waters_[w];
    const Vec3 before_o = positions[t.o];
    const Vec3 before_h1 = positions[t.h1];
    const Vec3 before_h2 = positions[t.h2];
    if (method == ConstraintMethod::kSettle) {
      settle_one(box, t, previous, positions);
    } else {
      shake_one(box, t, previous, positions);
    }
    if (velocities != nullptr && dt > 0.0) {
      (*velocities)[t.o] += (positions[t.o] - before_o) / dt;
      (*velocities)[t.h1] += (positions[t.h1] - before_h1) / dt;
      (*velocities)[t.h2] += (positions[t.h2] - before_h2) / dt;
    }
  });
}

namespace {

// Orthonormal basis as a row-major rotation: rows are the axes.
struct Frame {
  Vec3 x, y, z;

  Vec3 to_local(const Vec3& v) const { return {dot(x, v), dot(y, v), dot(z, v)}; }
  Vec3 to_world(const Vec3& v) const { return v.x * x + v.y * y + v.z * z; }
};

}  // namespace

void WaterConstraints::settle_one(const Box& box, const Triplet& t,
                                  std::span<const Vec3> previous,
                                  std::vector<Vec3>& positions) const {
  // Local (unwrapped) coordinates relative to the previous oxygen image so
  // periodic wrapping cannot split a molecule.
  const Vec3 ref = previous[t.o];
  const Vec3 a0{};  // previous O relative to itself
  const Vec3 b0 = box.min_image_disp(previous[t.h1], ref);
  const Vec3 c0 = box.min_image_disp(previous[t.h2], ref);
  Vec3 a1 = box.min_image_disp(positions[t.o], ref);
  Vec3 b1 = box.min_image_disp(positions[t.h1], ref);
  Vec3 c1 = box.min_image_disp(positions[t.h2], ref);

  const double total = m_o_ + 2.0 * m_h_;
  const Vec3 com = (m_o_ * a1 + m_h_ * b1 + m_h_ * c1) / total;
  a1 -= com;
  b1 -= com;
  c1 -= com;
  const Vec3 ob0 = b0 - a0;  // previous H1 relative to previous O
  const Vec3 oc0 = c0 - a0;

  // Primed frame (Miyamoto & Kollman):
  //   z' along the normal of the previous triangle,
  //   x' = a1 x z'  (so a1 lies in the y'z' plane),
  //   y' = z' x x'.
  // Validated sign convention: with this frame the theta root below is the
  // (alpha gamma - beta sqrt(...)) branch, agreeing with SHAKE to 1e-14.
  const Vec3 zd = cross(ob0, oc0);
  Vec3 xd = cross(a1, zd);
  Frame frame;
  frame.z = zd / norm(zd);
  const double nxd = norm(xd);
  if (nxd > 1e-12 * norm(zd) * norm(a1)) {
    frame.x = xd / nxd;
  } else {
    // a1 parallel to the plane normal: any in-plane axis works.
    const Vec3 helper = std::abs(frame.z.x) < 0.9 ? Vec3{1, 0, 0} : Vec3{0, 1, 0};
    frame.x = cross(helper, frame.z);
    frame.x /= norm(frame.x);
  }
  frame.y = cross(frame.z, frame.x);

  // Transform into the primed frame.  The old hydrogens are referenced to
  // the old oxygen (orientation only); the new positions to the new COM.
  const Vec3 b0d = frame.to_local(ob0);
  const Vec3 c0d = frame.to_local(oc0);
  const Vec3 a1d = frame.to_local(a1);
  const Vec3 b1d = frame.to_local(b1);
  const Vec3 c1d = frame.to_local(c1);

  // Rotation angles phi (about x), psi (about y) from the z displacements.
  const double sinphi = std::clamp(a1d.z / ra_, -1.0, 1.0);
  const double cosphi = std::sqrt(1.0 - sinphi * sinphi);
  const double sinpsi =
      std::clamp((b1d.z - c1d.z) / (2.0 * rc_ * cosphi), -1.0, 1.0);
  const double cospsi = std::sqrt(1.0 - sinpsi * sinpsi);

  // Canonical triangle tilted by phi and psi (primed frame, before the
  // final rotation theta about z).
  const double ya2 = ra_ * cosphi;
  const double xb2 = -rc_ * cospsi;
  const double yb2 = -rb_ * cosphi - rc_ * sinpsi * sinphi;
  const double yc2 = -rb_ * cosphi + rc_ * sinpsi * sinphi;

  // Solve for theta from the constraint that the rotation preserve the
  // projection of the old positions onto the new ones (M&K eq. A8).
  const double alpha = xb2 * (b0d.x - c0d.x) + b0d.y * yb2 + c0d.y * yc2;
  const double beta = xb2 * (c0d.y - b0d.y) + b0d.x * yb2 + c0d.x * yc2;
  const double gamma = b0d.x * b1d.y - b1d.x * b0d.y + c0d.x * c1d.y - c1d.x * c0d.y;
  const double a2b2 = alpha * alpha + beta * beta;
  const double under = a2b2 - gamma * gamma;
  const double sintheta =
      (alpha * gamma - beta * std::sqrt(std::max(under, 0.0))) / a2b2;
  const double costheta = std::sqrt(std::max(1.0 - sintheta * sintheta, 0.0));

  // Final constrained positions in the primed frame.
  const Vec3 a3d{-ya2 * sintheta, ya2 * costheta, a1d.z};
  const Vec3 b3d{xb2 * costheta - yb2 * sintheta, xb2 * sintheta + yb2 * costheta,
                 b1d.z};
  const Vec3 c3d{-xb2 * costheta - yc2 * sintheta, -xb2 * sintheta + yc2 * costheta,
                 c1d.z};

  // Back to world coordinates.
  positions[t.o] = frame.to_world(a3d) + com + ref;
  positions[t.h1] = frame.to_world(b3d) + com + ref;
  positions[t.h2] = frame.to_world(c3d) + com + ref;
}

void WaterConstraints::shake_one(const Box& box, const Triplet& t,
                                 std::span<const Vec3> previous,
                                 std::vector<Vec3>& positions) const {
  const Vec3 ref = previous[t.o];
  Vec3 prev[3] = {Vec3{}, box.min_image_disp(previous[t.h1], ref),
                  box.min_image_disp(previous[t.h2], ref)};
  Vec3 cur[3] = {box.min_image_disp(positions[t.o], ref),
                 box.min_image_disp(positions[t.h1], ref),
                 box.min_image_disp(positions[t.h2], ref)};
  const double inv_m[3] = {1.0 / m_o_, 1.0 / m_h_, 1.0 / m_h_};
  const double d_oh = params_.d_oh;
  const double targets[3] = {d_oh * d_oh, d_oh * d_oh,
                             params_.d_hh() * params_.d_hh()};
  const std::size_t pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};

  for (int iter = 0; iter < params_.shake_max_iterations; ++iter) {
    double worst = 0.0;
    for (int c = 0; c < 3; ++c) {
      const std::size_t i = pairs[c][0], j = pairs[c][1];
      const Vec3 rij = cur[i] - cur[j];
      const double diff = norm2(rij) - targets[c];
      worst = std::max(worst, std::abs(diff));
      const Vec3 rij_prev = prev[i] - prev[j];
      const double denom = 2.0 * (inv_m[i] + inv_m[j]) * dot(rij, rij_prev);
      if (std::abs(denom) < 1e-30) continue;
      const double g = diff / denom;
      cur[i] -= (g * inv_m[i]) * rij_prev;
      cur[j] += (g * inv_m[j]) * rij_prev;
    }
    if (worst < params_.shake_tolerance) break;
  }
  positions[t.o] = cur[0] + ref;
  positions[t.h1] = cur[1] + ref;
  positions[t.h2] = cur[2] + ref;
}

void WaterConstraints::project_velocities(const Box& box,
                                          std::span<const Vec3> positions,
                                          std::vector<Vec3>& velocities) const {
  const double inv_o = 1.0 / m_o_, inv_h = 1.0 / m_h_;
  parallel_for(0, waters_.size(), [&](std::size_t w) {
    const Triplet& t = waters_[w];
    // Bonds c = (i, j): O-H1, O-H2, H1-H2, with r_c = x_i - x_j.
    const Vec3 r0 = box.min_image_disp(positions[t.o], positions[t.h1]);
    const Vec3 r1 = box.min_image_disp(positions[t.o], positions[t.h2]);
    const Vec3 r2 = box.min_image_disp(positions[t.h1], positions[t.h2]);
    Vec3& vo = velocities[t.o];
    Vec3& vh1 = velocities[t.h1];
    Vec3& vh2 = velocities[t.h2];
    // Impulse lambda_c along r_c (v_i -= lambda_c r_c / m_i, v_j += lambda_c
    // r_c / m_j) zeroes every bond rate r_c . (v_i - v_j) when
    // A lambda = b, with A = J M^-1 J^T the bond-coupling matrix.
    const double a00 = norm2(r0) * (inv_o + inv_h);
    const double a11 = norm2(r1) * (inv_o + inv_h);
    const double a22 = norm2(r2) * (2.0 * inv_h);
    const double a01 = dot(r0, r1) * inv_o;
    const double a02 = -dot(r0, r2) * inv_h;
    const double a12 = dot(r1, r2) * inv_h;
    const double b0 = dot(r0, vo - vh1);
    const double b1 = dot(r1, vo - vh2);
    const double b2 = dot(r2, vh1 - vh2);
    // Symmetric adjugate solve.
    const double c00 = a11 * a22 - a12 * a12;
    const double c01 = a02 * a12 - a01 * a22;
    const double c02 = a01 * a12 - a02 * a11;
    const double c11 = a00 * a22 - a02 * a02;
    const double c12 = a01 * a02 - a00 * a12;
    const double c22 = a00 * a11 - a01 * a01;
    const double inv_det = 1.0 / (a00 * c00 + a01 * c01 + a02 * c02);
    const double l0 = (c00 * b0 + c01 * b1 + c02 * b2) * inv_det;
    const double l1 = (c01 * b0 + c11 * b1 + c12 * b2) * inv_det;
    const double l2 = (c02 * b0 + c12 * b1 + c22 * b2) * inv_det;
    vo -= inv_o * (l0 * r0 + l1 * r1);
    vh1 += inv_h * (l0 * r0 - l2 * r2);
    vh2 += inv_h * (l1 * r1 + l2 * r2);
  });
}

double WaterConstraints::max_violation(const Box& box,
                                       std::span<const Vec3> positions) const {
  double worst = 0.0;
  // std::max would drop a NaN distance and report a broken geometry as
  // satisfied; keep the NaN instead.
  const auto track = [&](std::size_t i, std::size_t j, double target) {
    const double d = std::abs(norm(box.min_image_disp(positions[i], positions[j])) - target);
    if (d > worst || std::isnan(d)) worst = d;
  };
  const double d_oh = params_.d_oh;
  const double d_hh = params_.d_hh();
  for (const Triplet& t : waters_) {
    track(t.o, t.h1, d_oh);
    track(t.o, t.h2, d_oh);
    track(t.h1, t.h2, d_hh);
  }
  return worst;
}

}  // namespace tme
