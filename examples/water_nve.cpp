// NVE molecular dynamics of TIP3P water with the TME long-range solver —
// the paper's Fig. 4 workload as a runnable application.
//
//   ./examples/water_nve [--molecules 216] [--ps 2] [--temperature 300]
//                        [--solver tme|spme] [--ion-pairs 0] [--traj out.xyz]
//
// The lattice start releases potential energy for the first ~100 fs, so the
// run first equilibrates for 0.2 ps, rescaling the velocities to
// --temperature after every step, then integrates the NVE window and prints
// a short trajectory log (time, kinetic/potential/total energy, temperature).
// Exits 1 if T leaves a +-50 K band around --temperature in the NVE window or
// a constraint is violated by more than 1e-9 nm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/tme.hpp"
#include "ewald/splitting.hpp"
#include "md/integrator.hpp"
#include "md/thermostat.hpp"
#include "md/water_box.hpp"
#include "util/args.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tme;
  const Args args(argc, argv);

  WaterBoxSpec spec;
  spec.molecules = args.get_int("molecules", 216);
  spec.temperature = args.get_double("temperature", 300.0);
  const double sim_ps = args.get_double("ps", 2.0);
  const std::string solver_name = args.get("solver", "tme");

  WaterBox wb = build_water_box(spec);
  const std::size_t ion_pairs =
      static_cast<std::size_t>(args.get_int("ion-pairs", 0));
  if (ion_pairs > 0) add_ion_pairs(wb, ion_pairs);
  const std::string traj_path = args.get("traj", "");
  const Box& box = wb.system.box;
  const std::size_t grid_n = 16;
  const double r_cut = 4.0 * box.lengths.x / static_cast<double>(grid_n);
  const double alpha = alpha_from_tolerance(r_cut, 1e-4);

  std::unique_ptr<LongRangeSolver> solver;
  if (solver_name == "tme") {
    TmeParams tp;
    tp.alpha = alpha;
    tp.grid = {grid_n, grid_n, grid_n};
    tp.grid_cutoff = 8;
    tp.num_gaussians = 4;
    solver = make_tme_solver(box, tp);
  } else if (solver_name == "spme") {
    SpmeParams sp;
    sp.alpha = alpha;
    sp.grid = {grid_n, grid_n, grid_n};
    solver = make_spme_solver(box, sp);
  } else {
    std::fprintf(stderr, "unknown --solver '%s' (use tme or spme)\n",
                 solver_name.c_str());
    return 1;
  }

  ShortRangeParams sr;
  sr.cutoff = r_cut;
  sr.alpha = alpha;
  const ForceField ff(sr, std::move(solver));

  const VelocityVerlet integrator(wb.topology, wb.system, IntegratorParams{});
  const std::size_t dof = wb.degrees_of_freedom();
  StepReport report = integrator.prime(wb.system, wb.topology, ff);
  constexpr int kEquilibrationSteps = 200;  // 0.2 ps at dt = 1 fs
  for (int s = 0; s < kEquilibrationSteps; ++s) {
    report = integrator.step(wb.system, wb.topology, ff);
    rescale_to_temperature(wb.system, spec.temperature, dof);
  }
  report.kinetic = wb.system.kinetic_energy();

  const int steps = static_cast<int>(sim_ps * 1000.0);
  std::unique_ptr<XyzWriter> traj;
  std::vector<std::string> elements;
  if (!traj_path.empty()) {
    traj = std::make_unique<XyzWriter>(traj_path);
    for (std::size_t w = 0; w < wb.molecules; ++w) {
      elements.push_back("O");
      elements.push_back("H");
      elements.push_back("H");
    }
    for (std::size_t i = elements.size(); i < wb.system.size(); ++i) {
      elements.push_back(wb.system.charges[i] > 0 ? "Na" : "Cl");
    }
  }
  std::printf("NVE %s: %zu molecules, box %.3f nm, r_c = %.3f nm, "
              "%d equilibration + %d steps\n",
              solver_name.c_str(), wb.molecules, box.lengths.x, r_cut,
              kEquilibrationSteps, steps);
  std::printf("%10s %14s %14s %14s %10s\n", "t (ps)", "kinetic", "potential",
              "total", "T (K)");

  constexpr double kTemperatureBand = 50.0;  // K
  constexpr double kViolationLimit = 1e-9;   // nm
  double t_min = wb.system.temperature(dof), t_max = t_min, violation = 0.0;
  bool in_band = true;
  Timer timer;
  for (int s = 0; s <= steps; ++s) {
    if (s > 0) report = integrator.step(wb.system, wb.topology, ff);
    const double t = wb.system.temperature(dof);
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
    in_band = in_band && std::abs(t - spec.temperature) <= kTemperatureBand;
    violation = std::max(violation, integrator.constraints().max_violation(
                                        box, wb.system.positions));
    if (s % std::max(steps / 10, 1) == 0) {
      std::printf("%10.3f %14.3f %14.3f %14.3f %10.1f\n", s * 0.001,
                  report.kinetic, report.energies.potential(), report.total(), t);
      if (traj) traj->write_frame(elements, wb.system.positions, box);
    }
  }
  std::printf("\n%.1f s wall clock, %.2f ms/step\n", timer.seconds(),
              timer.milliseconds() / std::max(steps, 1));
  std::printf("T range %.1f - %.1f K (band %.0f +- %.0f K)\n", t_min, t_max,
              spec.temperature, kTemperatureBand);
  std::printf("max constraint violation: %.2e nm (limit %.0e)\n", violation,
              kViolationLimit);
  if (!in_band || !(violation <= kViolationLimit)) {
    std::fprintf(stderr, "water_nve: FAILED (%s)\n",
                 in_band ? "constraint violation" : "temperature left the band");
    return 1;
  }
  return 0;
}
