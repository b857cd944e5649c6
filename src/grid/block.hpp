// Halo blocks and the axis-pass body shared by every grid stencil kernel.
//
// On MDGRAPE-4A the same LRU and GCU units run whole-grid and node-local
// work: each reads a node-local block plus its sleeve (paper Sec. IV.A-B).
// The software kernels mirror that by reading their source through one
// AxisMap per axis: Grid3d::wrap for a whole periodic grid, the offset from
// the halo's origin for a node's ExtendedBlock.  Restriction, prolongation
// and the separable convolution are linear axis stencils, built into an
// AxisStencil against the source's map and applied by one axis-pass body.
// Whole-grid drivers split that body over a thread pool; block entry points
// run it inline and never touch the pool (a forked worker inherits a pool
// whose threads no longer exist).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

// Where global grid index g lives along one axis of a stored array holding
// [origin, origin + extent).  With a nonzero period, an index outside that
// range resolves through a periodic image (atoms are wrapped into the box,
// so a spline support may sit one period away from a block); a whole
// periodic grid is {0, n, n}.
struct AxisMap {
  static constexpr std::size_t kOutside = SIZE_MAX;

  long origin = 0;
  std::size_t extent = 0;
  std::size_t period = 0;

  // Stored position of global index g, or kOutside.
  std::size_t operator()(long g) const {
    const long i = g - origin;
    if (i >= 0 && i < static_cast<long>(extent)) return static_cast<std::size_t>(i);
    if (period == 0) return kOutside;
    const std::size_t w = Grid3d::wrap(i, period);
    return w < extent ? w : kOutside;
  }
};

// Layout of a stored grid, one AxisMap per axis (x, y, z).
using AxisMaps = std::array<AxisMap, 3>;

inline AxisMaps periodic_maps(const GridDims& d) {
  return {AxisMap{0, d.nx, d.nx}, AxisMap{0, d.ny, d.ny}, AxisMap{0, d.nz, d.nz}};
}

// An extended (halo-carrying) local buffer for one node: global coordinates
// [x0, x0+nx) x [y0, ...) x [z0, ...), unwrapped (may be negative).
struct ExtendedBlock {
  long x0 = 0, y0 = 0, z0 = 0;
  std::size_t nx = 0, ny = 0, nz = 0;
  std::vector<double> data;

  void reset(long x, long y, long z, std::size_t ex, std::size_t ey, std::size_t ez) {
    *this = {x, y, z, ex, ey, ez, std::vector<double>(ex * ey * ez, 0.0)};
  }
  GridDims dims() const { return {nx, ny, nz}; }
  // The block's layout in a grid of the given period (0 = in-range only).
  // Throws std::invalid_argument when data does not hold exactly the
  // extents' cells (extents may come off the wire: no wrapping product).
  AxisMaps maps(const GridDims& period = {}) const {
    const std::size_t plane = nx * ny;
    if ((ny != 0 && plane / ny != nx) || (nz != 0 && plane * nz / nz != plane) ||
        data.size() != plane * nz) {
      throw std::invalid_argument("ExtendedBlock: data size does not match extents");
    }
    return {AxisMap{x0, nx, period.nx}, AxisMap{y0, ny, period.ny},
            AxisMap{z0, nz, period.nz}};
  }
  // Unchecked global-coordinate access.
  double& at(long gx, long gy, long gz) { return data[index(gx, gy, gz)]; }
  double at(long gx, long gy, long gz) const { return data[index(gx, gy, gz)]; }
  std::size_t index(long gx, long gy, long gz) const {
    return (static_cast<std::size_t>(gz - z0) * ny + static_cast<std::size_t>(gy - y0)) *
               nx + static_cast<std::size_t>(gx - x0);
  }
};

// One axis of a linear stencil over n_out outputs: an fma chain in tap order,
//   out[n] = sum_t weight[n*width + t] * src[index[n*width + t]].
// Window rows [lo, hi) read index = n + shift - t (one shift) with row lo's
// weights, so the x pass runs them W outputs at a time as one contiguous row.
struct AxisStencil {
  std::size_t width = 0;
  std::vector<std::size_t> index;
  std::vector<double> weight;
  std::size_t lo = 0, hi = 0;
};

// Finds the stencil's contiguous window rows [lo, hi).
void find_window(AxisStencil& s, std::size_t n_out);

// Builds a stencil row by row: tap(n, t) returns the global source index and
// weight of output n's tap t, resolved through `src`.  Throws
// std::invalid_argument when a tap falls outside the stored range.
template <typename Tap>
AxisStencil build_stencil(const AxisMap& src, std::size_t n_out, std::size_t width,
                          Tap&& tap) {
  AxisStencil s{width, std::vector<std::size_t>(n_out * width),
                std::vector<double>(n_out * width)};
  for (std::size_t k = 0; k < n_out * width; ++k) {
    const auto [g, w] = tap(k / width, k % width);
    s.index[k] = src(g);
    s.weight[k] = w;
    if (s.index[k] == AxisMap::kOutside) {
      throw std::invalid_argument("grid stencil: source index outside the block");
    }
  }
  find_window(s, n_out);
  return s;
}

// Applies `s` along `axis` (0 = x) from `src` (dims sd) into `dst` (dims dd,
// equal to sd off the axis).  pool == nullptr runs inline on the caller.
// Every element sees the same fma chain under either SIMD mode.
void axis_pass(const double* src, const GridDims& sd, double* dst,
               const GridDims& dd, int axis, const AxisStencil& s,
               simd::Mode mode, ThreadPool* pool);

}  // namespace tme
