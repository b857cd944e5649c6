#include "grid/separable_conv.hpp"

#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace tme {

namespace {

void check_kernel(const Kernel1d& k) {
  if (k.taps.size() != static_cast<std::size_t>(2 * k.cutoff + 1)) {
    throw std::invalid_argument("Kernel1d: taps size must be 2*cutoff+1");
  }
}

// Convolution along one axis: output n (global index origin + n) reads
// source cell origin + n - m with tap k[m], t = m + cutoff.
AxisStencil conv_stencil(const AxisMap& src, long origin, std::size_t n_out,
                         const Kernel1d& k) {
  return build_stencil(src, n_out, k.taps.size(), [&](std::size_t n, std::size_t t) {
    const long m = static_cast<long>(t) - k.cutoff;
    return std::pair{origin + static_cast<long>(n) - m, k.taps[t]};
  });
}

// The dense 3D loop onto `out` at global origin `origin` from `src` laid out
// by `maps`; pool == nullptr runs inline on the caller.
void dense3d(const double* src, const GridDims& sd, const AxisMaps& maps,
             const long (&origin)[3], const std::vector<double>& taps3d, int cutoff,
             Grid3d& out, ThreadPool* pool) {
  const std::size_t width = static_cast<std::size_t>(2 * cutoff + 1);
  if (taps3d.size() != width * width * width) {
    throw std::invalid_argument("convolve_dense3d: taps size must be (2c+1)^3");
  }
  const Kernel1d unit{cutoff, std::vector<double>(width, 1.0)};
  const GridDims& d = out.dims();
  const AxisStencil sx = conv_stencil(maps[0], origin[0], d.nx, unit);
  const AxisStencil sy = conv_stencil(maps[1], origin[1], d.ny, unit);
  const AxisStencil sz = conv_stencil(maps[2], origin[2], d.nz, unit);
  auto planes = [&](std::size_t first, std::size_t last) {
    for (std::size_t iz = first; iz < last; ++iz) {
      for (std::size_t iy = 0; iy < d.ny; ++iy) {
        for (std::size_t ix = 0; ix < d.nx; ++ix) {
          double acc = 0.0;
          std::size_t tap = 0;
          for (std::size_t tz = 0; tz < width; ++tz) {
            for (std::size_t ty = 0; ty < width; ++ty) {
              const double* row = src + (sz.index[iz * width + tz] * sd.ny +
                                         sy.index[iy * width + ty]) * sd.nx;
              for (std::size_t tx = 0; tx < width; ++tx) {
                acc += taps3d[tap++] * row[sx.index[ix * width + tx]];
              }
            }
          }
          out.at(ix, iy, iz) = acc;
        }
      }
    }
  };
  if (pool == nullptr) {
    planes(0, d.nz);
  } else {
    parallel_for(*pool, 0, d.nz, [&](std::size_t iz) { planes(iz, iz + 1); });
  }
}

}  // namespace

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out) {
  convolve_axis(in, kernel, axis, out, simd::mode_from_env());
}

void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out, simd::Mode mode) {
  check_kernel(kernel);
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_axis: dimension mismatch");
  }
  if (&in == &out) throw std::invalid_argument("convolve_axis: in-place not supported");
  const int a = static_cast<int>(axis);
  const GridDims& d = in.dims();
  const std::size_t n_axis = a == 0 ? d.nx : a == 1 ? d.ny : d.nz;
  if (2 * static_cast<std::size_t>(kernel.cutoff) + 1 > 2 * n_axis) {
    // Kernels wider than the periodic domain would double-count images in a
    // way the truncated hardware kernel never does; reject loudly.
    throw std::invalid_argument("convolve_axis: kernel cutoff exceeds grid period");
  }
  axis_pass(in.data(), d, out.data(), d, a,
            conv_stencil(periodic_maps(d)[a], 0, n_axis, kernel), mode, &global_pool());
}

Grid3d convolve_axis_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                           const GridDims& out_dims, const Kernel1d& kernel,
                           ConvAxis axis, const BlockConvStencil* prebuilt) {
  check_kernel(kernel);
  const AxisMaps maps = halo.maps();
  const int a = static_cast<int>(axis);
  const long origin[3] = {ox, oy, oz};
  const std::size_t extent[3] = {out_dims.nx, out_dims.ny, out_dims.nz};
  for (int b = 0; b < 3; ++b) {
    if (b != a && (maps[b].origin != origin[b] || maps[b].extent != extent[b])) {
      throw std::invalid_argument("convolve_axis_block: halo must match the block off-axis");
    }
  }
  const bool reuse = prebuilt != nullptr && prebuilt->n_out == extent[a] &&
                     origin[a] - maps[a].origin == prebuilt->reach &&
                     maps[a].extent == extent[a] + 2 * static_cast<std::size_t>(
                                                           prebuilt->reach);
  AxisStencil built;
  if (!reuse) built = conv_stencil(maps[a], origin[a], extent[a], kernel);
  Grid3d out(out_dims);
  axis_pass(halo.data.data(), halo.dims(), out.data(), out_dims, a,
            reuse ? prebuilt->stencil : built, simd::mode_from_env(), nullptr);
  return out;
}

BlockConvStencil conv_block_stencil(const Kernel1d& kernel, std::size_t n_out,
                                    long reach) {
  check_kernel(kernel);
  // Block-relative coordinates: the block starts at 0, its halo at -reach.
  const AxisMap halo{-reach, n_out + 2 * static_cast<std::size_t>(reach), 0};
  return {n_out, reach, conv_stencil(halo, 0, n_out, kernel)};
}

Grid3d convolve_separable(const Grid3d& in, const Kernel1d& kx,
                          const Kernel1d& ky, const Kernel1d& kz) {
  Grid3d tmp1(in.dims());
  Grid3d tmp2(in.dims());
  convolve_axis(in, kx, ConvAxis::kX, tmp1);
  convolve_axis(tmp1, ky, ConvAxis::kY, tmp2);
  convolve_axis(tmp2, kz, ConvAxis::kZ, tmp1);
  return tmp1;
}

void axpy(double scale, const Grid3d& x, Grid3d& y) {
  if (!(x.dims() == y.dims())) throw std::invalid_argument("axpy: dimension mismatch");
  const double* src = x.data();
  double* dst = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) dst[i] += scale * src[i];
}

void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out) {
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_tensor: dimension mismatch");
  }
  for (const SeparableTerm& term : terms) {
    axpy(scale, convolve_separable(in, term.kx, term.ky, term.kz), out);
  }
}

void convolve_dense3d(const Grid3d& in, const std::vector<double>& taps3d,
                      int cutoff, Grid3d& out) {
  if (!(in.dims() == out.dims())) {
    throw std::invalid_argument("convolve_dense3d: dimension mismatch");
  }
  dense3d(in.data(), in.dims(), periodic_maps(in.dims()), {0, 0, 0}, taps3d, cutoff,
          out, &global_pool());
}

Grid3d convolve_dense3d_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                              const GridDims& out_dims,
                              const std::vector<double>& taps3d, int cutoff) {
  Grid3d out(out_dims);
  dense3d(halo.data.data(), halo.dims(), halo.maps(), {ox, oy, oz}, taps3d, cutoff, out,
          nullptr);
  return out;
}

}  // namespace tme
