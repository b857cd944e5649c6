#include "md/short_range_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/abft.hpp"
#include "md/cell_list.hpp"
#include "md/short_range_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/constants.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace tme {

ShortRangeEngine::ShortRangeEngine(const ShortRangeParams& params)
    : params_(params) {
  if (params.kernel == CoulombKernel::kTabulated) {
    table_ = std::make_unique<ForceTable>(params.alpha, params.table_r_min,
                                          params.cutoff, params.table_segments);
  }
  switch (params.simd) {
    case ShortRangeParams::SimdChoice::kScalar:
      mode_ = simd::Mode::kScalar;
      break;
    case ShortRangeParams::SimdChoice::kNative:
      mode_ = simd::Mode::kNative;
      break;
    case ShortRangeParams::SimdChoice::kEnv:
      mode_ = simd::mode_from_env();
      break;
  }
}

ShortRangeResult ShortRangeEngine::compute(ParticleSystem& system,
                                           const Topology& topology,
                                           ThreadPool* pool_ptr) const {
  TME_PHASE("short_range");
  TME_COUNTER_ADD("short_range/calls", 1);
  ShortRangeResult out;
  const std::size_t n = system.size();
  if (n == 0) return out;
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();

  const double cutoff2 = params_.cutoff * params_.cutoff;
  const CellList cells(system.box, system.positions, params_.cutoff);
  const std::size_t ncells = cells.cell_count();

  SweepInput in;
  in.topology = &topology;
  in.box = system.box.lengths;
  in.cutoff2 = cutoff2;
  in.kernel = PairKernelConfig{params_.alpha, table_.get()};

  // --- LJ type compression + flat mixing table -----------------------------
  // Types are found by a linear scan over the distinct (sigma, epsilon)
  // pairs seen so far: a force field has a handful of LJ types, and the
  // ntypes² mixing table below already assumes as much.
  const auto& lj = topology.lj();
  std::vector<std::uint32_t> type_of(n);
  std::vector<LjParams> types;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t t = 0;
    while (t < types.size() &&
           !(types[t].sigma == lj[i].sigma && types[t].epsilon == lj[i].epsilon)) {
      ++t;
    }
    if (t == types.size()) types.push_back(lj[i]);
    type_of[i] = static_cast<std::uint32_t>(t);
  }
  const std::size_t ntypes = types.size();
  TME_GAUGE_SET("short_range/lj_types", ntypes);
  double inv_rc6 = 0.0;
  if (params_.shift_lj) inv_rc6 = 1.0 / (cutoff2 * cutoff2 * cutoff2);
  // Precombined Lorentz–Berthelot pair parameters: E = (c12/r⁶ - c6)/r⁶ -
  // e_shift and f·r = (12 c12/r⁶ - 6 c6)/r⁶ / r², with e_shift the energy at
  // the cutoff (0 when shift_lj is off).
  in.ntypes = ntypes;
  in.mix_c6.assign(ntypes * ntypes, 0.0);
  in.mix_c12.assign(ntypes * ntypes, 0.0);
  in.mix_shift.assign(ntypes * ntypes, 0.0);
  for (std::size_t a = 0; a < ntypes; ++a) {
    for (std::size_t b = 0; b < ntypes; ++b) {
      const double eps = std::sqrt(types[a].epsilon * types[b].epsilon);
      if (eps <= 0.0) continue;
      const double sigma = 0.5 * (types[a].sigma + types[b].sigma);
      const double sig2 = sigma * sigma;
      const double sig6 = sig2 * sig2 * sig2;
      const double c6 = 4.0 * eps * sig6;    // 4 ε σ⁶
      const double c12 = c6 * sig6;          // 4 ε σ¹²
      in.mix_c6[a * ntypes + b] = c6;
      in.mix_c12[a * ntypes + b] = c12;
      in.mix_shift[a * ntypes + b] = (c12 * inv_rc6 - c6) * inv_rc6;
    }
  }

  // --- cell-sorted SoA packing ---------------------------------------------
  const std::size_t padded = n + simd::kNativeWidth;
  in.x.assign(padded, 0.0);
  in.y.assign(padded, 0.0);
  in.z.assign(padded, 0.0);
  in.q.resize(n);
  in.type.resize(n);
  in.orig.resize(n);
  in.excl_lo.resize(n);
  in.excl_hi.resize(n);
  in.cell_start.assign(ncells + 1, 0);
  {
    std::size_t k = 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      in.cell_start[c] = k;
      for (const std::size_t i : cells.cell_atoms(c)) {
        in.orig[k] = static_cast<std::uint32_t>(i);
        in.x[k] = system.positions[i].x;
        in.y[k] = system.positions[i].y;
        in.z[k] = system.positions[i].z;
        in.q[k] = system.charges[i];
        in.type[k] = type_of[i];
        const std::span<const std::size_t> partners = topology.exclusion_partners(i);
        in.excl_lo[k] = partners.empty() ? UINT32_MAX
                                         : static_cast<std::uint32_t>(partners.front());
        in.excl_hi[k] = partners.empty() ? 0 : static_cast<std::uint32_t>(partners.back());
        ++k;
      }
    }
    in.cell_start[ncells] = k;
  }

  // Forward-neighbour stencils, flattened (CSR) once per call.
  in.stencil_start.assign(ncells + 1, 0);
  in.stencil.reserve(13 * ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    const CellList::Stencil st = cells.half_stencil(c);
    in.stencil.insert(in.stencil.end(), st.begin(), st.end());
    in.stencil_start[c + 1] = in.stencil.size();
  }

  // --- parallel sweep over contiguous cell batches -------------------------
  const std::size_t nb =
      std::min<std::size_t>(ThreadPool::in_parallel_region() ? 1 : pool.concurrency(),
                            ncells);
  const std::size_t chunk = (ncells + nb - 1) / nb;
  std::vector<SweepPartial> partials(nb);
  parallel_for(pool, 0, nb, [&](std::size_t b) {
    TME_TRACE_SPAN("short_range/batch");
    SweepPartial& part = partials[b];
    part.forces.assign(n, Vec3{});
    PairBatch batch;
    const std::size_t c_begin = b * chunk;
    sweep_cells(in, c_begin, std::min(c_begin + chunk, ncells), batch, part, mode_);
  });

  // --- deterministic reduction (fixed batch order) -------------------------
  {
    TME_PHASE("reduce");
    parallel_for(pool, 0, n, [&](std::size_t k) {
      Vec3 acc{};
      for (std::size_t b = 0; b < nb; ++b) acc += partials[b].forces[k];
      system.forces[in.orig[k]] += acc;
    });
  }
  for (std::size_t b = 0; b < nb; ++b) {
    out.energy_coulomb += partials[b].energy_coulomb;
    out.energy_lj += partials[b].energy_lj;
    out.pair_count += partials[b].pairs;
    out.pairs_examined += partials[b].examined;
  }

  // Newton's-third-law ABFT check: the pair kernel writes +fij/-fij, so the
  // engine's net contribution cancels exactly in real arithmetic.  The sum
  // below reassociates 2·pairs accumulations plus the nb·n merge, so the
  // residual must stay inside that chain's rounding envelope.
  {
    double fmax = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t k = 0; k < n; ++k) {
        const Vec3& f = partials[b].forces[k];
        out.net_force += f;
        fmax = std::max({fmax, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
      }
    }
    out.net_force_tolerance =
        abft::rounding_tolerance(2 * out.pair_count + nb * n, fmax, 0x1p-52);
    abft::CheckSet checks(params_.abft_tolerance_scale);
    const bool ok_x = checks.check("sr_net_force", 0.0, out.net_force.x,
                                   out.net_force_tolerance, 0,
                                   "short-range net force x");
    const bool ok_y = checks.check("sr_net_force", 0.0, out.net_force.y,
                                   out.net_force_tolerance, 1,
                                   "short-range net force y");
    const bool ok_z = checks.check("sr_net_force", 0.0, out.net_force.z,
                                   out.net_force_tolerance, 2,
                                   "short-range net force z");
    out.third_law_ok = ok_x && ok_y && ok_z;
  }

  TME_COUNTER_ADD("short_range/pairs", out.pair_count);
  TME_COUNTER_ADD("short_range/pairs_examined", out.pairs_examined);
  TME_GAUGE_SET("short_range/batches", nb);
  return out;
}

}  // namespace tme
