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
// axis.  Atoms are wrapped into the box, so a support cell is at most one
// period from its stored image and a compare-and-add resolves it; whatever
// that leaves goes through the map's modulo, which resolves the same cell or
// fails when the support leaves a block's sleeve.
void support(const AxisMap& map, long base, int p, std::size_t* ix) {
  const long extent = static_cast<long>(map.extent);
  const long period = static_cast<long>(map.period);
  for (int k = 0; k < p; ++k) {
    long i = base + k - map.origin;
    if (i < 0) {
      i += period;
    } else if (i >= extent) {
      i -= period;
    }
    if (i >= 0 && i < extent) {
      ix[k] = static_cast<std::size_t>(i);
      continue;
    }
    ix[k] = map(base + k);
    if (ix[k] == AxisMap::kOutside) {
      throw std::logic_error("CA/BI: atom support exceeds sleeve");
    }
  }
}

// A blown-up coordinate (NaN or inf after a diverging step) has no grid
// cell, and as NaN it would reach the spline kernel's float-to-integer cast.
// Such an atom skips the stencil: spreading poisons the grid and gathering
// gives the atom a NaN energy and force, so the run's guardrail still sees
// non-finite forces.
bool on_grid(const Vec3& u) {
  return std::isfinite(u.x) && std::isfinite(u.y) && std::isfinite(u.z);
}

// Atoms per chunk: at p = 6 the part of ChunkSplines in use is ~20 KB, so it
// stays in L1 while the stencils read it.
constexpr std::size_t kChunk = ChargeAssigner::kChunkAtoms;

// One chunk's spline data, per axis: the central base index of each atom's
// support, and its p weights (and, for BI, derivatives) at stride p.
struct ChunkSplines {
  double u[3][kChunk];
  long base[3][kChunk];
  bool on_grid[kChunk];
  double w[3][kChunk * kMaxBsplineOrder];
  double d[3][kChunk * kMaxBsplineOrder];
};

// Fills `c` for atoms [first, first + n), at grid spacing h: W atoms at a
// time through the vector kernel, the tail through its W = 1 twin (bitwise
// the same per atom).  An off-grid atom is evaluated at 0 and flagged.
template <int W>
void fill_chunk(int p, const Box& box, const Vec3& h, std::span<const Vec3> positions,
                std::size_t first, std::size_t n, bool derivs, ChunkSplines& c) {
  for (std::size_t a = 0; a < n; ++a) {
    const Vec3 u = hadamard_div(box.wrap(positions[first + a]), h);
    c.on_grid[a] = on_grid(u);
    const Vec3 at = c.on_grid[a] ? u : Vec3{};
    c.u[0][a] = at.x;
    c.u[1][a] = at.y;
    c.u[2][a] = at.z;
  }
  const std::size_t up = static_cast<std::size_t>(p);
  for (int axis = 0; axis < 3; ++axis) {
    const double* u = c.u[axis];
    long* base = c.base[axis];
    double* w = c.w[axis];
    double* d = derivs ? c.d[axis] : nullptr;
    std::size_t a = 0;
    for (; a + W <= n; a += W) {
      bspline_weights_lanes<W>(p, u + a, base + a, w + a * up,
                               d != nullptr ? d + a * up : nullptr, up);
    }
    for (; a < n; ++a) {
      bspline_weights_lanes<1>(p, u + a, base + a, w + a * up,
                               d != nullptr ? d + a * up : nullptr, up);
    }
    for (a = 0; a < n; ++a) base[a] += p / 2;
  }
}

// fill_chunk at the width `mode` selects.
void load_chunk(simd::Mode mode, int p, const Box& box, const Vec3& h,
                std::span<const Vec3> positions, std::size_t first, std::size_t n,
                bool derivs, ChunkSplines& c) {
  if (simd::lanes(mode) > 1) {
    fill_chunk<simd::kNativeWidth>(p, box, h, positions, first, n, derivs, c);
  } else {
    fill_chunk<1>(p, box, h, positions, first, n, derivs, c);
  }
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

// The CA stencil of one loaded chunk holding atoms first .. first + n - 1:
// their charges spread into `grid`.  P is the order when fixed at compile
// time, 0 for the run-time order p_rt (one body; the compiler unrolls its
// loops when P is fixed).
template <int P>
void spread_chunk(double* grid, const AxisMaps& maps, int p_rt, int width,
                  const ChunkSplines& c, std::span<const double> charges,
                  std::size_t first, std::size_t n) {
  const int p = P > 0 ? P : p_rt;
  const std::size_t up = static_cast<std::size_t>(p);
  const std::size_t nx = maps[0].extent, ny = maps[1].extent;
  std::size_t ix[kMaxBsplineOrder], iy[kMaxBsplineOrder], iz[kMaxBsplineOrder];
  for (std::size_t a = 0; a < n; ++a) {
    if (!c.on_grid[a]) {
      grid[0] = kNaN;
      continue;
    }
    support(maps[0], c.base[0][a], p, ix);
    support(maps[1], c.base[1][a], p, iy);
    support(maps[2], c.base[2][a], p, iz);
    const double* wx = c.w[0] + a * up;
    const double* wy = c.w[1] + a * up;
    const double* wz = c.w[2] + a * up;
    const double q = charges[first + a];
    for (std::size_t kz = 0; kz < up; ++kz) {
      const double qz = q * wz[kz];
      for (std::size_t ky = 0; ky < up; ++ky) {
        const double qyz = qz * wy[ky];
        double* row = grid + (iz[kz] * ny + iy[ky]) * nx;
        if (width > 1) {
          spread_line<simd::kNativeWidth>(row, ix, p, qyz, wx);
        } else {
          spread_line<1>(row, ix, p, qyz, wx);
        }
      }
    }
  }
}

// The BI stencil of one loaded chunk holding atoms first .. first + n - 1:
// their potentials into phi_out and forces into forces (when not null), and
// q_i phi_i added to `sum` in atom order.  P as for spread_chunk.
template <int P>
void gather_chunk(const double* grid, const AxisMaps& maps, int p_rt, int width,
                  const Vec3& h, const ChunkSplines& c,
                  std::span<const double> charges, std::size_t first, std::size_t n,
                  std::vector<Vec3>* forces, std::vector<double>* phi_out,
                  double& sum) {
  const int p = P > 0 ? P : p_rt;
  const std::size_t up = static_cast<std::size_t>(p);
  const std::size_t nx = maps[0].extent, ny = maps[1].extent;
  std::size_t ix[kMaxBsplineOrder], iy[kMaxBsplineOrder], iz[kMaxBsplineOrder];
  double line[kMaxBsplineOrder];
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t i = first + a;
    if (!c.on_grid[a]) {
      if (phi_out != nullptr) (*phi_out)[i] = kNaN;
      sum = kNaN;
      if (forces != nullptr) (*forces)[i] += {kNaN, kNaN, kNaN};
      continue;
    }
    support(maps[0], c.base[0][a], p, ix);
    support(maps[1], c.base[1][a], p, iy);
    support(maps[2], c.base[2][a], p, iz);
    const double* wx = c.w[0] + a * up;
    const double* wy = c.w[1] + a * up;
    const double* wz = c.w[2] + a * up;
    const double* dx = c.d[0] + a * up;
    const double* dy = c.d[1] + a * up;
    const double* dz = c.d[2] + a * up;
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
          gather_line<1>(line, wx, dx, p, line_v, line_d);
        } else if (width > 1) {
          gather_line<simd::kNativeWidth>(row + ix[0], wx, dx, p, line_v, line_d);
        } else {
          gather_line<1>(row + ix[0], wx, dx, p, line_v, line_d);
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
      (*forces)[i] += {-q * grad.x / h.x, -q * grad.y / h.y, -q * grad.z / h.z};
    }
  }
}

}  // namespace

ChargeAssigner::ChargeAssigner(const Box& box, GridDims dims, int order)
    : box_(box), dims_(dims), p_(order) {
  if (order < 2 || order % 2 != 0) {
    throw std::invalid_argument("ChargeAssigner: order must be even and >= 2");
  }
  if (order > kMaxBsplineOrder) {
    throw std::invalid_argument("ChargeAssigner: order exceeds kMaxBsplineOrder");
  }
  if (dims.total() == 0) throw std::invalid_argument("ChargeAssigner: empty grid");
  h_ = {box.lengths.x / static_cast<double>(dims.nx),
        box.lengths.y / static_cast<double>(dims.ny),
        box.lengths.z / static_cast<double>(dims.nz)};
}

// The hardware's order (paper Sec. III.B) runs the stencils with p fixed at
// compile time; every other order runs the same bodies with p at run time.
void ChargeAssigner::spread_range(double* grid, const AxisMaps& maps,
                                  std::span<const Vec3> positions,
                                  std::span<const double> charges,
                                  std::size_t first, std::size_t last) const {
  const int width = simd::lanes(simd_mode_);
  ChunkSplines c;
  for (std::size_t c0 = first; c0 < last; c0 += kChunk) {
    const std::size_t n = std::min(kChunk, last - c0);
    load_chunk(simd_mode_, p_, box_, h_, positions, c0, n, false, c);
    if (p_ == 6) {
      spread_chunk<6>(grid, maps, p_, width, c, charges, c0, n);
    } else {
      spread_chunk<0>(grid, maps, p_, width, c, charges, c0, n);
    }
  }
}

double ChargeAssigner::gather_range(const double* grid, const AxisMaps& maps,
                                    std::span<const Vec3> positions,
                                    std::span<const double> charges,
                                    std::size_t first, std::size_t last,
                                    std::vector<Vec3>* forces,
                                    std::vector<double>* phi_out) const {
  const int width = simd::lanes(simd_mode_);
  ChunkSplines c;
  double sum = 0.0;
  for (std::size_t c0 = first; c0 < last; c0 += kChunk) {
    const std::size_t n = std::min(kChunk, last - c0);
    load_chunk(simd_mode_, p_, box_, h_, positions, c0, n, true, c);
    if (p_ == 6) {
      gather_chunk<6>(grid, maps, p_, width, h_, c, charges, c0, n, forces, phi_out,
                      sum);
    } else {
      gather_chunk<0>(grid, maps, p_, width, h_, c, charges, c0, n, forces, phi_out,
                      sum);
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
