// Holonomic constraints for rigid 3-site water.
//
// The paper's NVE runs (Fig. 4) restrain the water geometry with SETTLE
// (Miyamoto & Kollman 1992).  Both halves are analytic: the positions by
// the rigid-triangle rotation, the velocities by one 3x3 solve per water
// for the three bond impulses.  An iterative SHAKE position solver
// (ConstraintMethod::kShake) is kept as the independent reference the
// SETTLE position tests validate against.
#pragma once

#include <span>
#include <vector>

#include "md/system.hpp"
#include "md/topology.hpp"

namespace tme {

enum class ConstraintMethod { kSettle, kShake };

struct ConstraintParams {
  double d_oh = 0.09572;        // nm (TIP3P)
  double theta_hoh_deg = 104.52;
  // Used only by ConstraintMethod::kShake positions; SETTLE (both halves)
  // has no iteration.
  double shake_tolerance = 1e-10;
  int shake_max_iterations = 500;

  double d_hh() const;
};

// apply_positions and project_velocities run their waters through
// parallel_for; each water writes only its own atoms, so the results do not
// depend on the pool size.
class WaterConstraints {
 public:
  WaterConstraints(const Topology& topology, std::span<const double> masses,
                   const ConstraintParams& params);

  // Constrains `positions` so each water triangle is rigid again.  `previous`
  // must satisfy the constraints (it supplies the reference orientation /
  // SHAKE directions).  If `velocities` is non-null they receive the
  // position correction divided by dt (the velocity-Verlet constraint
  // force contribution).
  void apply_positions(const Box& box, std::span<const Vec3> previous,
                       std::vector<Vec3>& positions, std::vector<Vec3>* velocities,
                       double dt, ConstraintMethod method) const;

  // Removes relative velocity components along the constrained bonds
  // (used after the second velocity half-kick): the exact mass-weighted
  // projection, one 3x3 adjugate solve for the three bond impulses per
  // water, so every bond rate is zero to rounding and each water's linear
  // and angular momentum is unchanged.
  void project_velocities(const Box& box, std::span<const Vec3> positions,
                          std::vector<Vec3>& velocities) const;

  // Largest |r_ij - d_ij| over all constraints (diagnostics/tests); NaN if
  // any constrained distance is not finite.
  double max_violation(const Box& box, std::span<const Vec3> positions) const;

 private:
  struct Triplet {
    std::size_t o, h1, h2;
  };
  void settle_one(const Box& box, const Triplet& t, std::span<const Vec3> previous,
                  std::vector<Vec3>& positions) const;
  void shake_one(const Box& box, const Triplet& t, std::span<const Vec3> previous,
                 std::vector<Vec3>& positions) const;

  std::vector<Triplet> waters_;
  ConstraintParams params_;
  double m_o_ = 0.0, m_h_ = 0.0;
  double ra_ = 0.0, rb_ = 0.0, rc_ = 0.0;  // canonical SETTLE triangle
};

}  // namespace tme
