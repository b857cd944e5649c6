// Parallel short-range engine, tabulated kernel, and threaded particle-grid
// path tests: parallel-vs-serial equivalence across pool sizes (1, 2, and N
// participating threads), force-table accuracy against analytic erfc, the
// cell sweep's edge cases (short j-runs, degenerate stencils, NaN inputs)
// under both SIMD modes, and determinism of the threaded exclusion
// corrections.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ewald/charge_assignment.hpp"
#include "ewald/force_table.hpp"
#include "ewald/splitting.hpp"
#include "md/short_range.hpp"
#include "md/short_range_engine.hpp"
#include "md/short_range_kernels.hpp"
#include "md/water_box.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme {
namespace {

// max_i |a_i - b_i| / max_i |b_i|.
double force_deviation(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, norm(a[i] - b[i]));
    scale = std::max(scale, norm(b[i]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

WaterBox test_box() {
  WaterBoxSpec spec;
  spec.molecules = 216;
  spec.seed = 7;
  WaterBox wb = build_water_box(spec);
  add_ion_pairs(wb, 4);  // several LJ types, non-trivial mixing table
  return wb;
}

ShortRangeParams test_params(const WaterBox& wb) {
  ShortRangeParams params;
  params.cutoff = std::min(0.9, 0.45 * wb.system.box.lengths.x);
  params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
  params.shift_lj = true;
  return params;
}

// --- force table -------------------------------------------------------------

TEST(ForceTable, MatchesAnalyticErfcWithinBound) {
  const double alpha = alpha_from_tolerance(1.2, 1e-4);
  const ForceTable table(alpha, 0.1, 1.2);
  // The constructor-measured bound must hold and sit below the 1e-6 target.
  EXPECT_LT(table.max_rel_error_energy(), 1e-6);
  EXPECT_LT(table.max_rel_error_force(), 1e-6);
  // Independent dense sampling (not the constructor's probe points).
  double worst_e = 0.0, worst_f = 0.0;
  for (int k = 0; k < 20000; ++k) {
    const double r = 0.1 + (1.2 - 0.1) * (k + 0.5) / 20000.0;
    const double r2 = r * r;
    const ForceTable::Sample tab = table.lookup(r2);
    const ForceTable::Sample ref = table.analytic(r2);
    worst_e = std::max(worst_e,
                       std::abs(tab.energy - ref.energy) / std::abs(ref.energy));
    worst_f = std::max(worst_f, std::abs(tab.force_over_r - ref.force_over_r) /
                                    std::abs(ref.force_over_r));
  }
  EXPECT_LT(worst_e, 1e-6);
  EXPECT_LT(worst_f, 1e-6);
}

TEST(ForceTable, FallsBackToAnalyticOutsideRange) {
  const ForceTable table(3.0, 0.1, 1.0);
  for (const double r : {0.01, 0.05, 0.0999, 1.001, 2.0}) {
    const ForceTable::Sample got = table.lookup(r * r);
    const ForceTable::Sample ref = table.analytic(r * r);
    EXPECT_EQ(got.energy, ref.energy);
    EXPECT_EQ(got.force_over_r, ref.force_over_r);
  }
}

TEST(ForceTable, RejectsBadArguments) {
  EXPECT_THROW(ForceTable(0.0, 0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(ForceTable(3.0, 0.1, 1.0, 1), std::invalid_argument);
}

// --- engine vs serial reference ----------------------------------------------

TEST(ShortRangeEngine, AnalyticMatchesSerialAcrossPoolSizes) {
  WaterBox wb = test_box();
  ShortRangeParams params = test_params(wb);
  params.kernel = CoulombKernel::kAnalytic;  // same math as the serial loop
  const std::size_t n = wb.system.size();

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, params);
  const std::vector<Vec3> f_serial = wb.system.forces;

  const ShortRangeEngine engine(params);
  for (const unsigned workers : {0u, 1u, 3u}) {  // 1, 2, and N threads total
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const ShortRangeResult r = engine.compute(wb.system, wb.topology, &pool);
    EXPECT_EQ(r.pair_count, serial.pair_count) << "workers=" << workers;
    EXPECT_NEAR(r.energy_coulomb, serial.energy_coulomb,
                1e-10 * std::abs(serial.energy_coulomb));
    EXPECT_NEAR(r.energy_lj, serial.energy_lj, 1e-10 * std::abs(serial.energy_lj));
    EXPECT_LT(force_deviation(wb.system.forces, f_serial), 1e-10)
        << "workers=" << workers;
  }
}

TEST(ShortRangeEngine, SamePoolSizeIsDeterministic) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();
  const ShortRangeEngine engine(params);
  ThreadPool pool(3);

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult a = engine.compute(wb.system, wb.topology, &pool);
  const std::vector<Vec3> f_a = wb.system.forces;
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult b = engine.compute(wb.system, wb.topology, &pool);
  EXPECT_EQ(a.energy_coulomb, b.energy_coulomb);
  EXPECT_EQ(a.energy_lj, b.energy_lj);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(f_a[i].x, wb.system.forces[i].x);
    EXPECT_EQ(f_a[i].y, wb.system.forces[i].y);
    EXPECT_EQ(f_a[i].z, wb.system.forces[i].z);
  }
}

TEST(ShortRangeEngine, ThirdLawNetForceCancelsWithinRoundingEnvelope) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();
  const ShortRangeEngine engine(params);

  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const ShortRangeResult r = engine.compute(wb.system, wb.topology, &pool);
    EXPECT_TRUE(r.third_law_ok) << "workers=" << workers;
    EXPECT_GT(r.net_force_tolerance, 0.0);
    EXPECT_LE(std::abs(r.net_force.x), r.net_force_tolerance);
    EXPECT_LE(std::abs(r.net_force.y), r.net_force_tolerance);
    EXPECT_LE(std::abs(r.net_force.z), r.net_force_tolerance);

    // Forces started at zero, so their sum is the engine's contribution too
    // (summed in a different order — both land inside the same envelope).
    Vec3 delta{};
    for (const Vec3& f : wb.system.forces) delta += f;
    EXPECT_LE(std::abs(delta.x), r.net_force_tolerance) << "workers=" << workers;
    EXPECT_LE(std::abs(delta.y), r.net_force_tolerance);
    EXPECT_LE(std::abs(delta.z), r.net_force_tolerance);
  }

  // abft_tolerance_scale = 0 collapses the envelope: the check must then
  // reject the (nonzero) rounding residual, proving the violation path and
  // the loosening knob are both wired through.
  ShortRangeParams strict = params;
  strict.abft_tolerance_scale = 0.0;
  const ShortRangeEngine zealot(strict);
  ThreadPool pool(3);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult rs = zealot.compute(wb.system, wb.topology, &pool);
  const bool exactly_zero = rs.net_force.x == 0.0 && rs.net_force.y == 0.0 &&
                            rs.net_force.z == 0.0;
  EXPECT_EQ(rs.third_law_ok, exactly_zero);
  EXPECT_FALSE(rs.third_law_ok);  // this box leaves a nonzero residual
}

TEST(ShortRangeEngine, TabulatedKernelTracksAnalyticForces) {
  WaterBox wb = test_box();
  ShortRangeParams params = test_params(wb);
  const std::size_t n = wb.system.size();

  params.kernel = CoulombKernel::kAnalytic;
  const ShortRangeEngine analytic(params);
  ASSERT_EQ(analytic.force_table(), nullptr);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult ra = analytic.compute(wb.system, wb.topology);
  const std::vector<Vec3> f_analytic = wb.system.forces;

  params.kernel = CoulombKernel::kTabulated;
  const ShortRangeEngine tabulated(params);
  ASSERT_NE(tabulated.force_table(), nullptr);
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult rt = tabulated.compute(wb.system, wb.topology);

  EXPECT_EQ(rt.pair_count, ra.pair_count);
  EXPECT_LT(force_deviation(wb.system.forces, f_analytic), 1e-6);
  EXPECT_NEAR(rt.energy_coulomb, ra.energy_coulomb,
              1e-6 * std::abs(ra.energy_coulomb));
  // LJ is evaluated identically in both modes.
  EXPECT_EQ(rt.energy_lj, ra.energy_lj);
}

TEST(ShortRangeEngine, DefaultKernelIsTheTableAndMatchesSerialWithinItsBound) {
  WaterBox wb = test_box();
  const ShortRangeParams params = test_params(wb);
  ASSERT_EQ(params.kernel, CoulombKernel::kTabulated);
  const std::size_t n = wb.system.size();

  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, params);
  const std::vector<Vec3> f_serial = wb.system.forces;

  const ShortRangeEngine engine(params);
  ASSERT_NE(engine.force_table(), nullptr);
  const double bound = engine.force_table()->max_rel_error_force();
  ASSERT_GT(bound, 0.0);
  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const ShortRangeResult r = engine.compute(wb.system, wb.topology, &pool);
    EXPECT_EQ(r.pair_count, serial.pair_count) << "workers=" << workers;
    EXPECT_GT(r.pairs_examined, r.pair_count);
    EXPECT_LT(force_deviation(wb.system.forces, f_serial), bound)
        << "workers=" << workers;
  }
}

// --- cell sweep edge cases -----------------------------------------------------

// `per_cell` particles at random points of every cell of a cells³ grid of
// edge `edge` (so the engine, binning at cutoff <= edge, finds the same
// grid), with random charges, two LJ types, and an exclusion between
// consecutive particles of every cell.
WaterBox cell_grid_box(std::size_t cells, std::size_t per_cell, double edge,
                       std::uint64_t seed) {
  WaterBox wb;
  ParticleSystem& sys = wb.system;
  const double length = edge * static_cast<double>(cells);
  sys.box.lengths = {length, length, length};
  Rng rng(seed);
  for (std::size_t cz = 0; cz < cells; ++cz) {
    for (std::size_t cy = 0; cy < cells; ++cy) {
      for (std::size_t cx = 0; cx < cells; ++cx) {
        for (std::size_t k = 0; k < per_cell; ++k) {
          sys.positions.push_back(
              {edge * (static_cast<double>(cx) + rng.uniform(0.01, 0.99)),
               edge * (static_cast<double>(cy) + rng.uniform(0.01, 0.99)),
               edge * (static_cast<double>(cz) + rng.uniform(0.01, 0.99))});
        }
      }
    }
  }
  const std::size_t n = sys.positions.size();
  sys.velocities.assign(n, Vec3{});
  sys.forces.assign(n, Vec3{});
  sys.masses.assign(n, 1.0);
  sys.charges.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    wb.topology.lj().push_back(i % 3 == 0 ? LjParams{0.3, 0.6} : LjParams{0.25, 0.2});
    if (i % per_cell != 0) wb.topology.add_exclusion(i - 1, i);
  }
  wb.topology.finalize(n);
  return wb;
}

// Runs the engine in scalar and native mode (pool sizes 1 and 4) and checks
// bitwise parity, plus agreement with the serial reference.  Returns the
// candidate pairs examined.
std::size_t expect_modes_bitwise_equal(WaterBox& wb, ShortRangeParams params,
                                       const std::string& label) {
  SCOPED_TRACE(label);
  const std::size_t n = wb.system.size();
  ShortRangeParams reference = params;
  reference.kernel = CoulombKernel::kAnalytic;
  wb.system.forces.assign(n, Vec3{});
  const ShortRangeResult serial = compute_short_range(wb.system, wb.topology, reference);
  EXPECT_GT(serial.pair_count, 0u);
  std::size_t examined = 0;
  for (const CoulombKernel kernel :
       {CoulombKernel::kAnalytic, CoulombKernel::kTabulated}) {
    params.kernel = kernel;
    params.simd = ShortRangeParams::SimdChoice::kScalar;
    const ShortRangeEngine scalar(params);
    params.simd = ShortRangeParams::SimdChoice::kNative;
    const ShortRangeEngine native(params);
    for (const unsigned workers : {0u, 3u}) {
      ThreadPool pool(workers);
      wb.system.forces.assign(n, Vec3{});
      const ShortRangeResult rs = scalar.compute(wb.system, wb.topology, &pool);
      const std::vector<Vec3> f_scalar = wb.system.forces;
      wb.system.forces.assign(n, Vec3{});
      const ShortRangeResult rn = native.compute(wb.system, wb.topology, &pool);
      EXPECT_EQ(rs.pair_count, serial.pair_count) << "workers=" << workers;
      EXPECT_EQ(rn.pair_count, serial.pair_count);
      EXPECT_EQ(rn.pairs_examined, rs.pairs_examined);
      examined = rs.pairs_examined;
      EXPECT_EQ(rn.energy_coulomb, rs.energy_coulomb);
      EXPECT_EQ(rn.energy_lj, rs.energy_lj);
      EXPECT_EQ(std::memcmp(wb.system.forces.data(), f_scalar.data(),
                            n * sizeof(Vec3)),
                0)
          << "native forces differ from the scalar twin, workers=" << workers;
    }
  }
  return examined;
}

TEST(ShortRangeEngine, ScalarAndNativeBitwiseOnShortJRuns) {
  // Neighbour-cell j-runs of length 1, W-1, W and W+1 (and intra-cell runs
  // one shorter): partial, exact and overflowing vector chunks.
  // On a 3×3×3 grid every cell has 26 distinct neighbours, so the sweep
  // examines each cell's internal pairs plus 351 neighbouring cell pairs.
  const std::size_t w = static_cast<std::size_t>(simd::kNativeWidth);
  for (const std::size_t per_cell : {std::size_t{1}, w - 1, w, w + 1}) {
    WaterBox wb = cell_grid_box(3, per_cell, 0.5, 11 + per_cell);
    ShortRangeParams params;
    params.cutoff = 0.5;
    params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
    params.table_r_min = 0.05;
    const std::size_t examined =
        expect_modes_bitwise_equal(wb, params, "per_cell=" + std::to_string(per_cell));
    EXPECT_EQ(examined,
              27 * per_cell * (per_cell - 1) / 2 + 351 * per_cell * per_cell);
  }
}

TEST(ShortRangeEngine, ScalarAndNativeBitwiseOnDegenerateStencils) {
  // One and two cells per axis: the half stencil collapses to duplicates of
  // the same neighbour, and at one cell the cutoff exceeds half the box.
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}}) {
    const double edge = cells == 1 ? 1.1 : 0.8;
    WaterBox wb = cell_grid_box(cells, 40, edge, 5 + cells);
    ShortRangeParams params;
    params.cutoff = cells == 1 ? 0.7 : 0.75;
    params.alpha = alpha_from_tolerance(params.cutoff, 1e-4);
    params.table_r_min = 0.05;
    params.shift_lj = true;
    expect_modes_bitwise_equal(wb, params, "cells=" + std::to_string(cells));
  }
}

TEST(ShortRangeEngine, NanCoordinateGivesNonFiniteForces) {
  // The guardrail relies on a corrupted coordinate surfacing as non-finite
  // forces, not on the sweep silently dropping its pairs.
  for (const CoulombKernel kernel :
       {CoulombKernel::kAnalytic, CoulombKernel::kTabulated}) {
    for (const auto choice :
         {ShortRangeParams::SimdChoice::kScalar, ShortRangeParams::SimdChoice::kNative}) {
      WaterBox wb = test_box();
      ShortRangeParams params = test_params(wb);
      params.kernel = kernel;
      params.simd = choice;
      wb.system.positions[17].y = std::numeric_limits<double>::quiet_NaN();
      const ShortRangeEngine engine(params);
      wb.system.forces.assign(wb.system.size(), Vec3{});
      const ShortRangeResult r = engine.compute(wb.system, wb.topology);
      bool non_finite = !std::isfinite(r.energy_coulomb) || !std::isfinite(r.energy_lj);
      for (const Vec3& f : wb.system.forces) {
        non_finite = non_finite || !std::isfinite(f.x) || !std::isfinite(f.y) ||
                     !std::isfinite(f.z);
      }
      EXPECT_TRUE(non_finite) << (kernel == CoulombKernel::kAnalytic ? "analytic" : "table")
                              << " " << simd::mode_name(engine.simd_mode());
    }
  }
}

TEST(PairKernel, TableBelowRangeAndNanLanesInBothModes) {
  // r = 0.05 nm sits below the table's r_min = 0.1 nm (negative segment
  // coordinate) and must take the analytic fallback; a NaN r² must come out
  // NaN.  Both instantiations must agree bitwise on every finite output.
  const double alpha = 3.0;
  const ForceTable table(alpha, 0.1, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double r2s[] = {0.05 * 0.05, 0.3 * 0.3, nan, 0.02 * 0.02, 0.999 * 0.999};
  PairBatch proto;
  for (std::size_t i = 0; i < std::size(r2s); ++i) {
    proto.push(0.0, 0.0, 0.0, r2s[i], 10.0, 1e-3, 1e-6, 0.0,
               static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + 1));
  }
  const PairKernelConfig cfg{alpha, &table};
  std::vector<double> outputs[2];
  for (int m = 0; m < 2; ++m) {
    const simd::Mode mode = m == 0 ? simd::Mode::kScalar : simd::Mode::kNative;
    PairBatch batch = proto;
    batch.finalize(simd::lanes(mode));
    evaluate_pair_batch(batch, cfg, mode);
    for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
      const ForceTable::Sample ref = table.analytic(r2s[i]);
      EXPECT_EQ(batch.e_coul[i], 10.0 * ref.energy) << simd::mode_name(mode);
    }
    EXPECT_TRUE(std::isnan(batch.e_coul[2]));
    EXPECT_TRUE(std::isnan(batch.f_over_r[2]));
    EXPECT_TRUE(std::isfinite(batch.f_over_r[4]));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i == 2) continue;
      outputs[m].insert(outputs[m].end(),
                        {batch.e_coul[i], batch.e_lj[i], batch.f_over_r[i]});
    }
  }
  ASSERT_EQ(outputs[0].size(), outputs[1].size());
  EXPECT_EQ(std::memcmp(outputs[0].data(), outputs[1].data(),
                        outputs[0].size() * sizeof(double)),
            0);
  // The scalar lookup routes NaN to the analytic kernel instead of the table.
  EXPECT_TRUE(std::isnan(table.lookup(nan).energy));
}

// --- threaded charge spreading -----------------------------------------------

TEST(ChargeAssignment, ThreadedSpreadMatchesSerialAcrossPoolSizes) {
  const Box box{{2.0, 2.0, 2.0}};
  Rng rng(99);
  const std::size_t n = 500;
  std::vector<Vec3> pos(n);
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  const ChargeAssigner assigner(box, {16, 16, 16}, 6);

  ThreadPool serial_pool(0);
  const Grid3d serial = assigner.assign(pos, q, &serial_pool);
  double scale = serial.max_abs();
  for (const unsigned workers : {1u, 3u}) {
    ThreadPool pool(workers);
    const Grid3d threaded = assigner.assign(pos, q, &pool);
    double worst = 0.0;
    for (std::size_t g = 0; g < serial.size(); ++g) {
      worst = std::max(worst, std::abs(threaded[g] - serial[g]));
    }
    EXPECT_LT(worst, 1e-12 * scale) << "workers=" << workers;
  }
}

// --- threaded exclusion corrections ------------------------------------------

TEST(ExclusionCorrections, BitwiseStableAcrossPoolSizes) {
  WaterBox wb = test_box();
  const double alpha = 3.0;
  const std::size_t n = wb.system.size();
  ASSERT_FALSE(wb.topology.exclusions().empty());

  ThreadPool serial_pool(0);
  wb.system.forces.assign(n, Vec3{});
  const double e_serial =
      apply_exclusion_corrections(wb.system, wb.topology, alpha, &serial_pool);
  const std::vector<Vec3> f_serial = wb.system.forces;

  for (const unsigned workers : {1u, 3u}) {
    ThreadPool pool(workers);
    wb.system.forces.assign(n, Vec3{});
    const double e =
        apply_exclusion_corrections(wb.system, wb.topology, alpha, &pool);
    EXPECT_EQ(e, e_serial) << "workers=" << workers;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(wb.system.forces[i].x, f_serial[i].x);
      EXPECT_EQ(wb.system.forces[i].y, f_serial[i].y);
      EXPECT_EQ(wb.system.forces[i].z, f_serial[i].z);
    }
  }
}

// --- TME_THREADS parsing -----------------------------------------------------

TEST(PoolSizing, WorkersFromEnv) {
  // Valid overrides: TME_THREADS is the total participating thread count.
  EXPECT_EQ(pool_workers_from_env("1", 8), 0u);
  EXPECT_EQ(pool_workers_from_env("4", 8), 3u);
  EXPECT_EQ(pool_workers_from_env("16", 2), 15u);
  // Unset / invalid values fall back to hardware_concurrency - 1.
  EXPECT_EQ(pool_workers_from_env(nullptr, 8), 7u);
  EXPECT_EQ(pool_workers_from_env("", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("0", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("-2", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("abc", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("4x", 8), 7u);
  EXPECT_EQ(pool_workers_from_env("99999", 8), 7u);
  // Degenerate hardware report still yields a valid (serial) pool.
  EXPECT_EQ(pool_workers_from_env(nullptr, 0), 0u);
}

}  // namespace
}  // namespace tme
