#include "grid/transfer.hpp"

#include <utility>
#include <vector>

#include "spline/two_scale.hpp"
#include "util/parallel.hpp"

namespace tme {

namespace {

// Restriction along one axis: coarse output m (global index origin + m)
// reads fine cells 2(origin + m) + k, |k| <= p/2, with weights J_k.
AxisStencil restriction_stencil(const AxisMap& fine, long origin, std::size_t n_out,
                                const std::vector<double>& j) {
  const long half_p = static_cast<long>(j.size() / 2);
  return build_stencil(fine, n_out, j.size(), [&](std::size_t m, std::size_t t) {
    const long k = static_cast<long>(t) - half_p;
    return std::pair{2 * (origin + static_cast<long>(m)) + k, j[t]};
  });
}

// Prolongation along one axis: fine output g = origin + n reads coarse cells
// m = (g - k)/2 over the k of g's parity.  Taps of the other parity carry
// weight 0 on cell floor(g/2), so every row has the same p + 1 taps.
AxisStencil prolongation_stencil(const AxisMap& coarse, long origin,
                                 std::size_t n_out, const std::vector<double>& j) {
  const long half_p = static_cast<long>(j.size() / 2);
  return build_stencil(coarse, n_out, j.size(), [&](std::size_t n, std::size_t t) {
    const long g = origin + static_cast<long>(n);
    const long k = static_cast<long>(t) - half_p;
    if (((g - k) & 1L) != 0) return std::pair{g >> 1, 0.0};
    return std::pair{(g - k) / 2, j[t]};
  });
}

// The x, y, z passes of restriction or prolongation from a source laid out
// by `src_map` onto the output block at global origin `origin`.
template <typename Stencil>
Grid3d transfer(const double* src, const GridDims& sd, const AxisMaps& src_map,
                const long (&origin)[3], const GridDims& out, int p,
                Stencil&& stencil, ThreadPool* pool) {
  const std::vector<double> j = two_scale_coefficients(p);
  const simd::Mode mode = simd::mode_from_env();
  const GridDims dx{out.nx, sd.ny, sd.nz};
  const GridDims dy{out.nx, out.ny, sd.nz};
  Grid3d tmp_x(dx), tmp_y(dy), result(out);
  axis_pass(src, sd, tmp_x.data(), dx, 0, stencil(src_map[0], origin[0], out.nx, j),
            mode, pool);
  axis_pass(tmp_x.data(), dx, tmp_y.data(), dy, 1,
            stencil(src_map[1], origin[1], out.ny, j), mode, pool);
  axis_pass(tmp_y.data(), dy, result.data(), out, 2,
            stencil(src_map[2], origin[2], out.nz, j), mode, pool);
  return result;
}

}  // namespace

Grid3d restrict_grid(const Grid3d& fine, int p) {
  const GridDims& d = fine.dims();
  return transfer(fine.data(), d, periodic_maps(d), {0, 0, 0}, d.halved(), p,
                  restriction_stencil, &global_pool());
}

Grid3d prolong_grid(const Grid3d& coarse, int p) {
  const GridDims& c = coarse.dims();
  return transfer(coarse.data(), c, periodic_maps(c), {0, 0, 0},
                  GridDims{2 * c.nx, 2 * c.ny, 2 * c.nz}, p, prolongation_stencil,
                  &global_pool());
}

Grid3d restrict_block(const ExtendedBlock& fine, long ox, long oy, long oz,
                      const GridDims& out, int p) {
  return transfer(fine.data.data(), fine.dims(), fine.maps(), {ox, oy, oz}, out, p,
                  restriction_stencil, nullptr);
}

Grid3d prolong_block(const ExtendedBlock& coarse, long ox, long oy, long oz,
                     const GridDims& out, int p) {
  return transfer(coarse.data.data(), coarse.dims(), coarse.maps(), {ox, oy, oz}, out,
                  p, prolongation_stencil, nullptr);
}

}  // namespace tme
