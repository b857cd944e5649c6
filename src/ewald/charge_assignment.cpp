#include "ewald/charge_assignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "spline/bspline.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace tme {

namespace {

// Accumulate one x-line of the P×P×P stencil into the grid:
//   row[ix[k]] = fma(qyz, wx[k], row[ix[k]]).
// When the support's stored positions ix are consecutive the stores are
// contiguous and run W elements at a time; the scattered fallback applies the
// identical per-element fma, so both paths — and both W instantiations — are
// bitwise interchangeable.
template <int W>
void spread_line(double* row, const std::size_t* ix, int p, double qyz,
                 const double* wx) {
  using V = simd::vec<double, W>;
  if (ix[p - 1] == ix[0] + static_cast<std::size_t>(p - 1)) {
    double* g = row + ix[0];
    const V qv = V::broadcast(qyz);
    int k = 0;
    for (; k + W <= p; k += W) {
      V::fma(qv, V::load(wx + k), V::load(g + k)).store(g + k);
    }
    if (k < p) {
      const int tail = p - k;
      V::fma(qv, V::load_partial(wx + k, tail), V::load_partial(g + k, tail))
          .store_partial(g + k, tail);
    }
  } else {
    for (int k = 0; k < p; ++k) {
      double& cell = row[ix[k]];
      cell = simd::fma1(qyz, wx[k], cell);
    }
  }
}

// Dot the x-line of grid values against the value and derivative weights:
//   line_v = sum_k pm[k] * wx[k],  line_d = sum_k pm[k] * dx[k].
// Lane partials are combined with vec::reduce_add's fixed tree, so W > 1
// differs from the scalar twin by reassociation rounding only (the gather
// relaxation documented in util/simd.hpp).
template <int W>
void gather_line(const double* pm, const double* wx, const double* dx, int p,
                 double& line_v, double& line_d) {
  using V = simd::vec<double, W>;
  V acc_v = V::zero();
  V acc_d = V::zero();
  int k = 0;
  for (; k + W <= p; k += W) {
    const V pv = V::load(pm + k);
    acc_v = V::fma(pv, V::load(wx + k), acc_v);
    acc_d = V::fma(pv, V::load(dx + k), acc_d);
  }
  if (k < p) {
    const int tail = p - k;
    const V pv = V::load_partial(pm + k, tail);
    acc_v = V::fma(pv, V::load_partial(wx + k, tail), acc_v);
    acc_d = V::fma(pv, V::load_partial(dx + k, tail), acc_d);
  }
  line_v = acc_v.reduce_add();
  line_d = acc_d.reduce_add();
}

// Stored positions of the p support cells base .. base + p - 1 along one
// axis.  Periodic maps always resolve; a block map fails when the support
// leaves the block's sleeve.
void support(const AxisMap& map, long base, int p, std::size_t* ix) {
  for (int k = 0; k < p; ++k) {
    ix[k] = map(base + k);
    if (ix[k] == AxisMap::kOutside) {
      throw std::logic_error("CA/BI: atom support exceeds sleeve");
    }
  }
}

// A blown-up coordinate (NaN or inf after a diverging step) has no grid
// cell, and as NaN it would reach bspline_weights' float-to-integer cast.
// Such an atom skips the stencil: spreading poisons the grid and gathering
// gives the atom a NaN energy and force, so the run's guardrail still sees
// non-finite forces.
bool on_grid(const Vec3& u) {
  return std::isfinite(u.x) && std::isfinite(u.y) && std::isfinite(u.z);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void check_atoms(const char* what, std::span<const Vec3> positions,
                 std::span<const double> charges, const std::vector<Vec3>* forces) {
  if (positions.size() != charges.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
  if (forces != nullptr && forces->size() != positions.size()) {
    throw std::invalid_argument(std::string(what) + ": forces size");
  }
}

// Particle batches for `pool`: one per participating thread (one inside a
// parallel region), capped to bound CA's scratch-grid memory on wide
// machines.  Batches run in parallel and reduce in fixed batch order, so a
// given pool size reproduces the same bits.
std::size_t batch_count(ThreadPool& pool, std::size_t n) {
  constexpr std::size_t kMaxBatches = 16;
  return std::min<std::size_t>(
      {ThreadPool::in_parallel_region() ? std::size_t{1} : pool.concurrency(),
       std::max<std::size_t>(n, 1), kMaxBatches});
}

}  // namespace

ChargeAssigner::ChargeAssigner(const Box& box, GridDims dims, int order)
    : box_(box), dims_(dims), p_(order) {
  if (order < 2) throw std::invalid_argument("ChargeAssigner: order must be >= 2");
  if (dims.total() == 0) throw std::invalid_argument("ChargeAssigner: empty grid");
  h_ = {box.lengths.x / static_cast<double>(dims.nx),
        box.lengths.y / static_cast<double>(dims.ny),
        box.lengths.z / static_cast<double>(dims.nz)};
}

void ChargeAssigner::spread_range(double* grid, const AxisMaps& maps,
                                  std::span<const Vec3> positions,
                                  std::span<const double> charges,
                                  std::size_t first, std::size_t last) const {
  const int p = p_;
  const std::size_t up = static_cast<std::size_t>(p);
  const int width = simd::lanes(simd_mode_);
  const std::size_t nx = maps[0].extent, ny = maps[1].extent;
  std::vector<double> wx(up), wy(wx), wz(wx);
  std::vector<std::size_t> ix(up), iy(up), iz(up);
  for (std::size_t i = first; i < last; ++i) {
    const Vec3 u = hadamard_div(box_.wrap(positions[i]), h_);
    if (!on_grid(u)) {
      grid[0] = kNaN;
      continue;
    }
    support(maps[0], bspline_weights_central(p, u.x, wx, {}), p, ix.data());
    support(maps[1], bspline_weights_central(p, u.y, wy, {}), p, iy.data());
    support(maps[2], bspline_weights_central(p, u.z, wz, {}), p, iz.data());
    const double q = charges[i];
    for (std::size_t kz = 0; kz < up; ++kz) {
      const double qz = q * wz[kz];
      for (std::size_t ky = 0; ky < up; ++ky) {
        const double qyz = qz * wy[ky];
        double* row = grid + (iz[kz] * ny + iy[ky]) * nx;
        if (width > 1) {
          spread_line<simd::kNativeWidth>(row, ix.data(), p, qyz, wx.data());
        } else {
          spread_line<1>(row, ix.data(), p, qyz, wx.data());
        }
      }
    }
  }
}

double ChargeAssigner::gather_range(const double* grid, const AxisMaps& maps,
                                    std::span<const Vec3> positions,
                                    std::span<const double> charges,
                                    std::size_t first, std::size_t last,
                                    std::vector<Vec3>* forces,
                                    std::vector<double>* phi_out) const {
  const int p = p_;
  const std::size_t up = static_cast<std::size_t>(p);
  const int width = simd::lanes(simd_mode_);
  const std::size_t nx = maps[0].extent, ny = maps[1].extent;
  std::vector<double> wx(up), wy(wx), wz(wx);
  std::vector<double> dx(wx), dy(wx), dz(wx), line(wx);
  std::vector<std::size_t> ix(up), iy(up), iz(up);
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const Vec3 u = hadamard_div(box_.wrap(positions[i]), h_);
    if (!on_grid(u)) {
      if (phi_out != nullptr) (*phi_out)[i] = kNaN;
      sum = kNaN;
      if (forces != nullptr) (*forces)[i] += {kNaN, kNaN, kNaN};
      continue;
    }
    support(maps[0], bspline_weights_central(p, u.x, wx, dx), p, ix.data());
    support(maps[1], bspline_weights_central(p, u.y, wy, dy), p, iy.data());
    support(maps[2], bspline_weights_central(p, u.z, wz, dz), p, iz.data());
    double phi = 0.0;
    Vec3 grad{};  // d phi / d u (grid units)
    const bool contiguous = ix[up - 1] == ix[0] + up - 1;
    for (std::size_t kz = 0; kz < up; ++kz) {
      const double vz = wz[kz];
      const double gz = dz[kz];
      for (std::size_t ky = 0; ky < up; ++ky) {
        const double vy = wy[ky];
        const double gy = dy[ky];
        const double* row = grid + (iz[kz] * ny + iy[ky]) * nx;
        double line_v = 0.0, line_d = 0.0;
        if (!contiguous) {
          // A support split in storage: one scalar fma chain over a copy.
          for (std::size_t k = 0; k < up; ++k) line[k] = row[ix[k]];
          gather_line<1>(line.data(), wx.data(), dx.data(), p, line_v, line_d);
        } else if (width > 1) {
          gather_line<simd::kNativeWidth>(row + ix[0], wx.data(), dx.data(), p,
                                          line_v, line_d);
        } else {
          gather_line<1>(row + ix[0], wx.data(), dx.data(), p, line_v, line_d);
        }
        phi += line_v * vy * vz;
        grad.x += line_d * vy * vz;
        grad.y += line_v * gy * vz;
        grad.z += line_v * vy * gz;
      }
    }
    if (phi_out != nullptr) (*phi_out)[i] = phi;
    sum += charges[i] * phi;
    if (forces != nullptr) {
      const double q = charges[i];
      (*forces)[i] += {-q * grad.x / h_.x, -q * grad.y / h_.y, -q * grad.z / h_.z};
    }
  }
  return sum;
}

Grid3d ChargeAssigner::assign(std::span<const Vec3> positions,
                              std::span<const double> charges,
                              ThreadPool* pool_ptr) const {
  check_atoms("ChargeAssigner::assign", positions, charges, nullptr);
  TME_COUNTER_ADD("charge_assignment/assign_calls", 1);
  Grid3d grid(dims_);
  const std::size_t n = positions.size();
  ThreadPool& pool = pool_ptr != nullptr ? *pool_ptr : global_pool();
  // The hardware accumulates through the global memory's atomic-add write
  // mode; in software each batch scatters into a private scratch grid and
  // the grids are summed point-wise in fixed batch order.
  const std::size_t nb = batch_count(pool, n);
  const AxisMaps maps = periodic_maps(dims_);
  if (nb <= 1) {
    spread_range(grid.data(), maps, positions, charges, 0, n);
    return grid;
  }
  const std::size_t chunk = (n + nb - 1) / nb;
  std::vector<Grid3d> scratch(nb);
  parallel_for(pool, 0, nb, [&](std::size_t b) {
    scratch[b] = Grid3d(dims_);
    spread_range(scratch[b].data(), maps, positions, charges, b * chunk,
                 std::min(b * chunk + chunk, n));
  });
  parallel_for(pool, 0, grid.size(), [&](std::size_t g) {
    double acc = 0.0;
    for (std::size_t b = 0; b < nb; ++b) acc += scratch[b][g];
    grid[g] = acc;
  });
  return grid;
}

double ChargeAssigner::back_interpolate(const Grid3d& potential,
                                        std::span<const Vec3> positions,
                                        std::span<const double> charges,
                                        std::vector<Vec3>* forces,
                                        std::vector<double>* phi_out) const {
  if (!(potential.dims() == dims_)) {
    throw std::invalid_argument("ChargeAssigner::back_interpolate: grid mismatch");
  }
  check_atoms("ChargeAssigner::back_interpolate", positions, charges, forces);
  if (phi_out != nullptr) phi_out->assign(positions.size(), 0.0);

  // One energy partial per batch, summed in batch order.
  ThreadPool& pool = global_pool();
  const std::size_t n = positions.size();
  const std::size_t nb = batch_count(pool, n);
  const std::size_t chunk = (n + nb - 1) / nb;
  const AxisMaps maps = periodic_maps(dims_);
  std::vector<double> partial(nb, 0.0);
  parallel_for(pool, 0, nb, [&](std::size_t b) {
    partial[b] = gather_range(potential.data(), maps, positions, charges,
                              std::min(b * chunk, n), std::min(b * chunk + chunk, n),
                              forces, phi_out);
  });
  double total = 0.0;
  for (const double s : partial) total += s;
  return total;
}

void ChargeAssigner::assign_block(ExtendedBlock& block, std::span<const Vec3> positions,
                                  std::span<const double> charges) const {
  check_atoms("ChargeAssigner::assign_block", positions, charges, nullptr);
  spread_range(block.data.data(), block.maps(dims_), positions, charges, 0,
               positions.size());
}

double ChargeAssigner::back_interpolate_block(const ExtendedBlock& block,
                                              std::span<const Vec3> positions,
                                              std::span<const double> charges,
                                              std::vector<Vec3>* forces) const {
  check_atoms("ChargeAssigner::back_interpolate_block", positions, charges, forces);
  return gather_range(block.data.data(), block.maps(dims_), positions, charges, 0,
                      positions.size(), forces, nullptr);
}

}  // namespace tme
