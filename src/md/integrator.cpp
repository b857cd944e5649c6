#include "md/integrator.hpp"

#include "util/parallel.hpp"

namespace tme {

VelocityVerlet::VelocityVerlet(const Topology& topology,
                               const ParticleSystem& system, IntegratorParams params)
    : params_(params),
      constraints_(topology, system.masses, ConstraintParams{}) {}

StepReport VelocityVerlet::prime(ParticleSystem& system, const Topology& topology,
                                 const ForceField& ff) const {
  StepReport report;
  constraints_.project_velocities(system.box, system.positions, system.velocities);
  report.energies = ff.evaluate(system, topology);
  report.kinetic = system.kinetic_energy();
  return report;
}

StepReport VelocityVerlet::step(ParticleSystem& system, const Topology& topology,
                                const ForceField& ff) const {
  const double dt = params_.dt;
  const std::size_t n = system.size();

  // Phase 1: half kick + drift (paper's first INTEGRATE phase).  Every
  // loop of the step writes only its own atoms, so the bits do not depend
  // on the pool size.
  std::vector<Vec3> previous = system.positions;
  parallel_for(0, n, [&](std::size_t i) {
    system.velocities[i] += (0.5 * dt / system.masses[i]) * system.forces[i];
    system.positions[i] += dt * system.velocities[i];
  });
  // Constrain positions; fold the correction into the velocities.
  constraints_.apply_positions(system.box, previous, system.positions,
                               &system.velocities, dt, params_.constraint_method);

  // Phase 2: force evaluation at the new positions.
  StepReport report;
  report.energies = ff.evaluate(system, topology);

  // Phase 3: second half kick + velocity constraint (SETTLE's closed-form
  // velocity half).
  parallel_for(0, n, [&](std::size_t i) {
    system.velocities[i] += (0.5 * dt / system.masses[i]) * system.forces[i];
  });
  constraints_.project_velocities(system.box, system.positions, system.velocities);

  report.kinetic = system.kinetic_energy();
  return report;
}

}  // namespace tme
