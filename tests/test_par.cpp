#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/tme.hpp"
#include "core/tuning.hpp"
#include "ewald/splitting.hpp"
#include "grid/transfer.hpp"
#include "md/water_box.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "par/decomposition.hpp"
#include "par/executor.hpp"
#include "par/par_tme.hpp"
#include "grid/separable_conv.hpp"
#include "par/traffic.hpp"
#include "pinned_hash.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tme::par {
namespace {

struct TestSystem {
  Box box;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

TestSystem random_system(std::size_t n, double box_length, std::uint64_t seed) {
  TestSystem sys;
  sys.box.lengths = {box_length, box_length, box_length};
  Rng rng(seed);
  sys.positions.resize(n);
  sys.charges.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sys.positions[i] = {rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                        rng.uniform(0.0, box_length)};
    sys.charges[i] = rng.uniform(-1.0, 1.0);
    total += sys.charges[i];
  }
  for (auto& q : sys.charges) q -= total / static_cast<double>(n);
  return sys;
}

TmeParams default_params(double alpha) {
  TmeParams tp;
  tp.alpha = alpha;
  tp.grid = {32, 32, 32};
  tp.levels = 1;
  tp.grid_cutoff = 8;
  tp.num_gaussians = 4;
  return tp;
}

using tme_test::PinnedHash;
using tme_test::pinned_for_this_build;
using tme_test::result_hash;

// --- decomposition -----------------------------------------------------------

TEST(Decomposition, OwnerAndOriginsAreConsistent) {
  const TorusTopology topo(4, 2, 2);
  const GridDecomposition d({32, 32, 32}, topo);
  EXPECT_EQ(d.local().nx, 8u);
  EXPECT_EQ(d.local().ny, 16u);
  EXPECT_EQ(d.local().nz, 16u);
  const NodeCoord owner = d.owner(9, 17, 3);
  EXPECT_EQ(owner.x, 1u);
  EXPECT_EQ(owner.y, 1u);
  EXPECT_EQ(owner.z, 0u);
  // Negative / beyond-period coordinates wrap.
  EXPECT_EQ(d.owner(-1, 0, 0).x, 3u);
  EXPECT_EQ(d.owner(32, 0, 0).x, 0u);
}

TEST(Decomposition, RejectsUnevenSplit) {
  const TorusTopology topo(3, 2, 2);
  EXPECT_THROW(GridDecomposition({32, 32, 32}, topo), std::invalid_argument);
}

TEST(Decomposition, AtomAssignmentCoversAllNodesUniformly) {
  const TorusTopology topo(2, 2, 2);
  const TestSystem sys = random_system(4000, 4.0, 3);
  const auto owners = assign_atoms_to_nodes(sys.box, sys.positions, topo);
  std::vector<std::size_t> counts(topo.node_count(), 0);
  for (const std::size_t o : owners) {
    ASSERT_LT(o, topo.node_count());
    ++counts[o];
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 500.0, 120.0);
  }
}

TEST(DistributedGrid, DistributeAssembleRoundTrip) {
  const TorusTopology topo(2, 2, 2);
  const GridDecomposition d({16, 16, 16}, topo);
  Grid3d g(d.global());
  Rng rng(4);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.uniform(-1.0, 1.0);
  const DistributedGrid dist = DistributedGrid::distribute(g, d);
  const Grid3d back = dist.assemble();
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(back[i], g[i]);
}

// --- traffic log -------------------------------------------------------------

TEST(TrafficLog, AccumulatesByPhase) {
  TrafficLog log;
  log.add("a", 1, 100, 2);
  log.add("a", 2, 50, 3);
  log.add("b", 1, 10, 1);
  EXPECT_EQ(log.phases().size(), 2u);
  EXPECT_EQ(log.words_in("a"), 150u);
  EXPECT_EQ(log.words_in("b"), 10u);
  EXPECT_EQ(log.words_in("absent"), 0u);
  EXPECT_EQ(log.total_messages(), 4u);
  EXPECT_EQ(log.total_words(), 160u);
  EXPECT_EQ(log.phases()[0].max_hops, 3u);
}

// --- parallel TME ------------------------------------------------------------

class ParallelTmeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = random_system(400, 6.4, 7);
    alpha_ = alpha_from_tolerance(0.8, 1e-4);
  }
  TestSystem sys_;
  double alpha_ = 0.0;
};

TEST_F(ParallelTmeTest, GridPipelineMatchesSerial) {
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);

  // Random finest-grid charges through both pipelines.
  Grid3d q(tp.grid);
  Rng rng(9);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);

  const Grid3d serial_phi = par.serial().solve_potential(q);
  const GridDecomposition decomp(tp.grid, par.topology());
  TrafficLog log;
  const DistributedGrid par_phi =
      par.solve_potential(DistributedGrid::distribute(q, decomp), &log);
  const Grid3d assembled = par_phi.assemble();

  // Every node block runs the serial kernels' own fma chains: exact.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial_phi.size(); ++i) {
    if (assembled[i] != serial_phi[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(log.total_words(), 0u);
}

TEST_F(ParallelTmeTest, ForcesAndEnergyMatchSerial) {
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(2, 2, 2);
  const ParallelTme par(sys_.box, tp, topo);

  const CoulombResult serial = par.serial().compute(sys_.positions, sys_.charges);
  TrafficLog log;
  const CoulombResult parallel = par.compute(sys_.positions, sys_.charges, &log);

  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < serial.forces.size(); ++i) {
    worst = std::max(worst, norm(parallel.forces[i] - serial.forces[i]));
    scale = std::max(scale, norm(serial.forces[i]));
  }
  EXPECT_LT(worst, 1e-10 * scale);
}

TEST_F(ParallelTmeTest, ResultIndependentOfDecomposition) {
  const TmeParams tp = default_params(alpha_);
  const ParallelTme p2(sys_.box, tp, TorusTopology(2, 2, 2));
  const ParallelTme p4(sys_.box, tp, TorusTopology(4, 4, 4));
  const ParallelTme p_aniso(sys_.box, tp, TorusTopology(4, 2, 1));
  const CoulombResult r2 = p2.compute(sys_.positions, sys_.charges, nullptr);
  const CoulombResult r4 = p4.compute(sys_.positions, sys_.charges, nullptr);
  const CoulombResult ra = p_aniso.compute(sys_.positions, sys_.charges, nullptr);
  EXPECT_NEAR(r2.energy, r4.energy, 1e-9 * std::abs(r2.energy));
  EXPECT_NEAR(r2.energy, ra.energy, 1e-9 * std::abs(r2.energy));
  for (std::size_t i = 0; i < r2.forces.size(); ++i) {
    EXPECT_LT(norm(r2.forces[i] - r4.forces[i]), 1e-8);
    EXPECT_LT(norm(r2.forces[i] - ra.forces[i]), 1e-8);
  }
}

TEST_F(ParallelTmeTest, ConvolutionTrafficMatchesCostModel) {
  // Paper Sec. III.C: level-1 convolution receives (2 + 4M) gamma^2 g_c^3
  // words per node.  Measure it on the 8^3-node, 32^3-grid, g_c = 8, M = 4
  // configuration of the machine (gamma = 0.5).
  TmeParams tp = default_params(alpha_);
  const TorusTopology topo(8, 8, 8);
  const ParallelTme par(sys_.box, tp, topo);
  const GridDecomposition decomp(tp.grid, par.topology());

  Grid3d q(tp.grid);
  Rng rng(11);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  TrafficLog log;
  (void)par.solve_potential(DistributedGrid::distribute(q, decomp), &log);

  const CostModelInput in{4, 8, 4};  // N/P = 32/8, g_c = 8, M = 4
  const double predicted = tme_level1_cost(in).comm;  // words per node
  const double measured =
      static_cast<double>(log.words_in("level convolution")) /
      static_cast<double>(topo.node_count());
  EXPECT_NEAR(measured, predicted, 0.01 * predicted);
}

TEST_F(ParallelTmeTest, ConvolutionTrafficMatchesCostModelAtGammaOne) {
  // Same check at gamma = 1 (N/P = 8): 4^3 nodes over the 32^3 grid.
  TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);
  const GridDecomposition decomp(tp.grid, par.topology());

  Grid3d q(tp.grid);
  Rng rng(13);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  TrafficLog log;
  (void)par.solve_potential(DistributedGrid::distribute(q, decomp), &log);

  const CostModelInput in{8, 8, 4};
  const double predicted = tme_level1_cost(in).comm;
  const double measured =
      static_cast<double>(log.words_in("level convolution")) /
      static_cast<double>(topo.node_count());
  EXPECT_NEAR(measured, predicted, 0.01 * predicted);
}

TEST_F(ParallelTmeTest, TransferPhasesAreCheapRelativeToConvolution) {
  // The paper's rationale for the B-spline hierarchy: restriction and
  // prolongation move far less data than the kernel convolution.
  const TmeParams tp = default_params(alpha_);
  const TorusTopology topo(4, 4, 4);
  const ParallelTme par(sys_.box, tp, topo);
  TrafficLog log;
  (void)par.compute(sys_.positions, sys_.charges, &log);
  EXPECT_LT(log.words_in("restriction halo"), log.words_in("level convolution"));
  EXPECT_LT(log.words_in("prolongation halo"), log.words_in("level convolution"));
  EXPECT_GT(log.words_in("CA sleeve exchange"), 0u);
  EXPECT_GT(log.words_in("BI grid transfer"), 0u);
  EXPECT_GT(log.words_in("TMENW gather"), 0u);
}

TEST_F(ParallelTmeTest, NetChargeBackgroundMatchesSerial) {
  // Both solvers drop the top level's k = 0 mode, so a charged cell carries
  // the neutralising-background term in both.
  TestSystem sys = sys_;
  sys.charges[0] += 1.0;
  const ParallelTme par(sys.box, default_params(alpha_), TorusTopology(2, 2, 2));
  const CoulombResult serial = par.serial().compute(sys.positions, sys.charges);
  const CoulombResult parallel = par.compute(sys.positions, sys.charges, nullptr);
  EXPECT_LT(serial.energy_background, 0.0);
  EXPECT_EQ(parallel.energy_background, serial.energy_background);
  EXPECT_EQ(parallel.energy_self, serial.energy_self);
  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
}

// The messages, words and word-hops the torus carries for one compute on a
// fixed seeded system, per phase and in logging order.  The values are those
// of the per-cell halo code the owner-block runs replaced.
TEST_F(ParallelTmeTest, TrafficIsPinnedPerPhase) {
  struct Phase {
    const char* name;
    std::size_t messages, words, word_hops, max_hops;
  };
  const Phase expected[] = {
      {"CA sleeve exchange", 3579, 57413, 87004, 3},
      {"restriction halo", 13312, 479232, 921600, 3},
      {"TMENW gather", 511, 4088, 24576, 12},
      {"TMENW scatter", 511, 4088, 24576, 12},
      {"prolongation halo", 32256, 171520, 451584, 6},
      {"level convolution", 18432, 1179648, 1769472, 2},
      {"BI grid transfer", 13312, 851968, 1769472, 3},
  };
  const ParallelTme par(sys_.box, default_params(alpha_), TorusTopology(8, 8, 8));
  TrafficLog log;
  (void)par.compute(sys_.positions, sys_.charges, &log);
  ASSERT_EQ(log.phases().size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const PhaseTraffic& got = log.phases()[i];
    EXPECT_EQ(got.phase, expected[i].name);
    EXPECT_EQ(got.messages, expected[i].messages) << got.phase;
    EXPECT_EQ(got.words, expected[i].words) << got.phase;
    EXPECT_EQ(got.word_hops, expected[i].word_hops) << got.phase;
    EXPECT_EQ(got.max_hops, expected[i].max_hops) << got.phase;
  }
}

TEST_F(ParallelTmeTest, TrafficCountersMirrorTheLogPerPhase) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  const ParallelTme par(sys_.box, default_params(alpha_), TorusTopology(4, 4, 4));
  TrafficLog log;
  (void)par.compute(sys_.positions, sys_.charges, &log);
  EXPECT_EQ(reg.counter("par/traffic/messages").value(), log.total_messages());
  EXPECT_EQ(reg.counter("par/traffic/words").value(), log.total_words());
  for (const PhaseTraffic& p : log.phases()) {
    std::string key = p.phase;
    std::replace(key.begin(), key.end(), ' ', '_');
    EXPECT_EQ(reg.counter("par/traffic/" + key + "/words").value(), p.words) << p.phase;
  }
}

// Halos wider than a whole level period: every halo cell still resolves to
// its owner's block (a block may feed one halo more than once), and CA
// sleeves that land on one cell twice accumulate in cell order.
TEST(ParallelTmeWideHalo, MatchesSerialWhenHalosExceedAPeriod) {
  struct Case {
    const char* name;
    std::size_t grid;
    int order, grid_cutoff;
    std::size_t nx, ny, nz;
    PinnedHash hash;  // forces and reciprocal energy
  };
  const Case cases[] = {
      // CA/BI sleeve 4 over 2-cell blocks; level-convolution halo 18 on period 16.
      {"p6 16^3 on 8x8x8", 16, 6, 8, 8, 8, 8,
       {0x273c734512587859ULL, 0x2c16393573b222d1ULL}},
      // Prolongation halo 5 on coarse period 4; convolution halo 12 on period 8.
      {"p4 8^3 on 4x4x4", 8, 4, 5, 4, 4, 4,
       {0x004d443af91d4d62ULL, 0x9568f065a1371e16ULL}},
      // CA/BI buffers 10 (two owners) and 14 (one owner) on period 8.
      {"p4 8^3 on 4x2x1", 8, 4, 3, 4, 2, 1,
       {0xed70e13bca07ef35ULL, 0xe45eee2a7ea79ba4ULL}},
  };
  const TestSystem sys = random_system(48, 3.2, 17);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TmeParams tp;
    tp.order = c.order;
    tp.grid = {c.grid, c.grid, c.grid};
    tp.alpha = 0.75 * static_cast<double>(c.grid) / sys.box.lengths.x;
    tp.levels = 1;
    tp.grid_cutoff = c.grid_cutoff;
    tp.num_gaussians = 2;
    const ParallelTme par(sys.box, tp, TorusTopology(c.nx, c.ny, c.nz));

    Grid3d q(tp.grid);
    Rng rng(9);
    for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
    const Grid3d serial_phi = par.serial().solve_potential(q);
    const GridDecomposition decomp(tp.grid, par.topology());
    const Grid3d par_phi =
        par.solve_potential(DistributedGrid::distribute(q, decomp), nullptr).assemble();
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < serial_phi.size(); ++i) {
      if (par_phi[i] != serial_phi[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);

    const CoulombResult serial = par.serial().compute(sys.positions, sys.charges);
    const CoulombResult parallel = par.compute(sys.positions, sys.charges, nullptr);
    EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
    double worst = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < serial.forces.size(); ++i) {
      worst = std::max(worst, norm(parallel.forces[i] - serial.forces[i]));
      scale = std::max(scale, norm(serial.forces[i]));
    }
    EXPECT_LT(worst, 1e-10 * scale);
    const std::uint64_t h = result_hash(parallel, {parallel.energy_reciprocal});
    if (const auto pinned = pinned_for_this_build(c.hash)) {
      EXPECT_EQ(h, *pinned) << std::hex << "0x" << h;
    }
  }
}

// Forces and energy on the stepbench lr_torus box (3,620 TIP3P molecules,
// seed 1, tuned for r_c = 0.6 nm, 8x8x8 torus), pinned bit for bit under
// both TME_SIMD modes.
TEST(ParallelTmeBitwise, StepbenchBoxMatchesPinnedHash) {
  const auto pinned =
      pinned_for_this_build({0xe8fafa59a8ddccc6ULL, 0xa1dd022f70e69a7fULL});
  if (!pinned) GTEST_SKIP() << "no pinned value for this build or SIMD width";
  WaterBoxSpec spec;
  spec.molecules = 3620;
  spec.seed = 1;
  const WaterBox wb = build_water_box(spec);
  TmeTuningRequest request;
  request.r_cut = 0.6;
  request.rtol = 1e-4;
  const TmeParams tp = tune_tme(wb.system.box, request).params;
  const ParallelTme par(wb.system.box, tp, TorusTopology(8, 8, 8));
  const CoulombResult r = par.compute(wb.system.positions, wb.system.charges, nullptr);
  const std::uint64_t h = result_hash(r, {r.energy});
  EXPECT_EQ(h, *pinned) << std::hex << "0x" << h;
}

// --- node tasks ----------------------------------------------------------------
//
// Tasks may arrive decoded from a socket, so execute_*_task must reject a halo
// that does not cover its stencil rather than read past it.  Each check builds
// the minimal halo (which must reproduce the whole-grid kernel exactly), then
// the same halo one cell short on each side of each axis.

long floor_div2(long v) { return v >= 0 ? v / 2 : -((1 - v) / 2); }

// Fill `halo` from the periodic grid `g`.
void fill_halo(const Grid3d& g, ExtendedBlock& halo) {
  for (long z = halo.z0; z < halo.z0 + static_cast<long>(halo.nz); ++z) {
    for (long y = halo.y0; y < halo.y0 + static_cast<long>(halo.ny); ++y) {
      for (long x = halo.x0; x < halo.x0 + static_cast<long>(halo.nx); ++x) {
        halo.at(x, y, z) = g.at_wrapped(x, y, z);
      }
    }
  }
}

// Run `task` on its full halo, check it against `expect` at the task's
// origin, then shrink the halo by one cell at each end of each axis.
void expect_exact_then_short_halo_throws(const PipelineContext& ctx,
                                         GridBlockTask task, const Grid3d& source,
                                         const Grid3d& expect) {
  fill_halo(source, task.halo);
  const Grid3d out = execute_grid_task(ctx, task);
  for (std::size_t z = 0; z < task.out_dims.nz; ++z) {
    for (std::size_t y = 0; y < task.out_dims.ny; ++y) {
      for (std::size_t x = 0; x < task.out_dims.nx; ++x) {
        ASSERT_EQ(out.at(x, y, z),
                  expect.at_wrapped(task.ox + static_cast<long>(x),
                                    task.oy + static_cast<long>(y),
                                    task.oz + static_cast<long>(z)));
      }
    }
  }
  const ExtendedBlock full = task.halo;
  for (int axis = 0; axis < 3; ++axis) {
    if (task.kind == GridBlockTask::Kind::kConvolve && axis != task.axis) continue;
    for (const bool low_end : {true, false}) {
      long o[3] = {full.x0, full.y0, full.z0};
      std::size_t e[3] = {full.nx, full.ny, full.nz};
      if (low_end) ++o[axis];
      --e[axis];
      task.halo.reset(o[0], o[1], o[2], e[0], e[1], e[2]);
      fill_halo(source, task.halo);
      EXPECT_THROW((void)execute_grid_task(ctx, task), std::invalid_argument)
          << "axis " << axis << (low_end ? " low" : " high");
    }
  }
}

class NodeTaskTest : public ::testing::Test {
 protected:
  NodeTaskTest()
      : par_(random_system(10, 6.4, 7).box, default_params(1.0), TorusTopology(4, 4, 4)) {}
  const PipelineContext& ctx() const { return par_.context(); }
  ParallelTme par_;
};

TEST_F(NodeTaskTest, RestrictTaskNeedsItsFullHalo) {
  const int half_p = ctx().p / 2;
  Rng rng(41);
  Grid3d fine(ctx().fine_global);
  for (std::size_t i = 0; i < fine.size(); ++i) fine[i] = rng.uniform(-1.0, 1.0);
  GridBlockTask t;
  t.kind = GridBlockTask::Kind::kRestrict;
  t.ox = 4;  // coarse node origin (1, 0, 3) of a 16^3 level on 4^3 nodes
  t.oy = 0;
  t.oz = 12;
  t.out_dims = {4, 4, 4};
  const std::size_t ext = 2 * 4 + static_cast<std::size_t>(ctx().p) - 1;
  t.halo.reset(2 * t.ox - half_p, 2 * t.oy - half_p, 2 * t.oz - half_p, ext, ext, ext);
  expect_exact_then_short_halo_throws(ctx(), t, fine, restrict_grid(fine, ctx().p));
}

TEST_F(NodeTaskTest, ProlongTaskNeedsItsFullHalo) {
  const long half_p = ctx().p / 2;
  Rng rng(43);
  Grid3d coarse(ctx().fine_global.halved());
  for (std::size_t i = 0; i < coarse.size(); ++i) coarse[i] = rng.uniform(-1.0, 1.0);
  GridBlockTask t;
  t.kind = GridBlockTask::Kind::kProlong;
  t.ox = 8;
  t.oy = 0;
  t.oz = 24;
  t.out_dims = {8, 8, 8};
  // Fine cell g reads coarse cells ceil((g - p/2) / 2) .. floor((g + p/2) / 2).
  const long o[3] = {t.ox, t.oy, t.oz};
  long lo[3];
  std::size_t ext[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = floor_div2(o[a] - half_p + 1);
    ext[a] = static_cast<std::size_t>(floor_div2(o[a] + 8 - 1 + half_p) - lo[a] + 1);
  }
  t.halo.reset(lo[0], lo[1], lo[2], ext[0], ext[1], ext[2]);
  expect_exact_then_short_halo_throws(ctx(), t, coarse, prolong_grid(coarse, ctx().p));
}

TEST_F(NodeTaskTest, ConvolveTaskNeedsItsFullHalo) {
  Rng rng(47);
  Grid3d in(ctx().fine_global);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  const SeparableTerm& term = ctx().kernels[0][1];
  const Kernel1d* kernels[3] = {&term.kx, &term.ky, &term.kz};
  for (int axis = 0; axis < 3; ++axis) {
    GridBlockTask t;
    t.kind = GridBlockTask::Kind::kConvolve;
    t.ox = 8;
    t.oy = 16;
    t.oz = 0;
    t.out_dims = {8, 8, 8};
    t.axis = axis;
    t.level = 1;
    t.term = 1;
    const long c = kernels[axis]->cutoff;
    long o[3] = {t.ox, t.oy, t.oz};
    std::size_t e[3] = {8, 8, 8};
    o[axis] -= c;
    e[axis] += 2 * static_cast<std::size_t>(c);
    t.halo.reset(o[0], o[1], o[2], e[0], e[1], e[2]);
    Grid3d expect(in.dims());
    convolve_axis(in, *kernels[axis], static_cast<ConvAxis>(axis), expect);
    expect_exact_then_short_halo_throws(ctx(), t, in, expect);
  }
}

TEST_F(NodeTaskTest, CaAndBiTasksRejectAtomsOutsideTheSleeve) {
  // Node 0 owns fine cells 0..7 per axis (h = 0.2); its sleeve reaches
  // p/2 + 1 = 4 cells out.  An atom at cell 16 cannot be spread there.
  CaBlockTask ca;
  ca.x0 = ca.y0 = ca.z0 = -4;
  ca.ex = ca.ey = ca.ez = 16;
  ca.positions = {{3.2, 0.5, 0.5}};
  ca.charges = {1.0};
  EXPECT_THROW((void)execute_ca_task(ctx(), ca), std::logic_error);
  ca.positions = {{0.5, 0.5, 0.5}};
  EXPECT_NO_THROW((void)execute_ca_task(ctx(), ca));

  BiBlockTask bi;
  bi.halo.reset(-4, -4, -4, 16, 16, 16);
  bi.positions = {{0.5, 3.2, 0.5}};
  bi.charges = {1.0};
  EXPECT_THROW((void)execute_bi_task(ctx(), bi), std::logic_error);
  bi.positions = {{0.5, 0.5, 0.5}};
  EXPECT_NO_THROW((void)execute_bi_task(ctx(), bi));
}

TEST_F(NodeTaskTest, TasksRejectOriginsOutOfRangeAndWrappingExtents) {
  CaBlockTask ca;
  ca.x0 = 1L << 50;
  ca.ex = ca.ey = ca.ez = 4;
  EXPECT_THROW((void)execute_ca_task(ctx(), ca), std::invalid_argument);
  ca.x0 = 0;
  ca.ex = std::size_t{1} << 22;  // ex * ey * ez wraps to 0 in 64 bits
  ca.ey = ca.ez = std::size_t{1} << 21;
  EXPECT_THROW((void)execute_ca_task(ctx(), ca), std::invalid_argument);
}

TEST(ParallelMsm, HaloTrafficMatchesCostModelExactly) {
  // The paper's MSM communication formula (8 + 12 gamma + 6 gamma^2) g_c^3
  // is the halo volume of the dense convolution — measure it.
  const int gc = 8;
  Grid3d in(32, 32, 32);
  Rng rng(23);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  std::vector<double> taps((2 * gc + 1) * (2 * gc + 1) * (2 * gc + 1), 0.0);
  taps[taps.size() / 2] = 1.0;  // delta: convolution math is not the point

  for (const std::size_t nodes : {8u, 4u}) {  // gamma = 0.5 and 1
    const TorusTopology topo(nodes, nodes, nodes);
    TrafficLog log;
    (void)parallel_msm_convolution(in, taps, gc, topo, &log);
    const double measured = static_cast<double>(log.words_in("MSM dense halo")) /
                            static_cast<double>(topo.node_count());
    const CostModelInput op{static_cast<int>(32 / nodes), gc, 4};
    const double predicted = msm_level1_cost(op).comm;
    EXPECT_NEAR(measured, predicted, 1e-9) << "nodes " << nodes;
  }
}

TEST(ParallelMsm, DenseConvolutionMatchesSerial) {
  const int gc = 4;
  Grid3d in(16, 16, 16);
  Rng rng(29);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  std::vector<double> taps;
  Rng rng2(31);
  for (int i = 0; i < (2 * gc + 1) * (2 * gc + 1) * (2 * gc + 1); ++i) {
    taps.push_back(rng2.uniform(-0.1, 0.1));
  }
  Grid3d serial(in.dims());
  convolve_dense3d(in, taps, gc, serial);
  const TorusTopology topo(2, 2, 2);
  const Grid3d parallel = parallel_msm_convolution(in, taps, gc, topo, nullptr);
  // Each node block runs convolve_dense3d's own loop: exact.
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(parallel[i], serial[i]);
}

TEST(ParallelTmeTwoLevel, MatchesSerialWithDeeperHierarchy) {
  const TestSystem sys = random_system(200, 6.4, 21);
  TmeParams tp;
  tp.alpha = alpha_from_tolerance(0.8, 1e-4);
  tp.grid = {32, 32, 32};
  tp.levels = 2;
  tp.grid_cutoff = 6;
  tp.num_gaussians = 3;
  const ParallelTme par(sys.box, tp, TorusTopology(2, 2, 2));
  const CoulombResult serial = par.serial().compute(sys.positions, sys.charges);
  const CoulombResult parallel = par.compute(sys.positions, sys.charges, nullptr);
  EXPECT_NEAR(parallel.energy, serial.energy, 1e-9 * std::abs(serial.energy));
  for (std::size_t i = 0; i < serial.forces.size(); ++i) {
    EXPECT_LT(norm(parallel.forces[i] - serial.forces[i]), 1e-8);
  }
}

}  // namespace
}  // namespace tme::par
