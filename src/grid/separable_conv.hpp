// Axis-wise (separable) periodic convolutions with a range-limited kernel —
// the software model of the MDGRAPE-4A grid convolution unit (GCU).
//
// A Kernel1d holds taps k[-cutoff .. +cutoff] (centre-indexed).  The 3D
// tensor-structured convolution of the TME (paper Eq. 10) is
//   out = sum_nu  K^{nu,x} *_x K^{nu,y} *_y K^{nu,z} *_z  in,
// evaluated one axis at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "grid/block.hpp"
#include "grid/grid3d.hpp"
#include "util/simd.hpp"

namespace tme {

// Symmetric-range 1D kernel, taps indexed from -cutoff to +cutoff.
struct Kernel1d {
  int cutoff = 0;
  std::vector<double> taps;  // size 2*cutoff + 1

  double tap(int m) const { return taps[static_cast<std::size_t>(m + cutoff)]; }
};

enum class ConvAxis { kX = 0, kY = 1, kZ = 2 };

// out[n] = sum_{|m| <= cutoff} k[m] * in[n - m]  along the chosen axis
// (periodic).  in and out must have identical dims; in-place is not allowed.
//
// The pass is grid/block.hpp's axis-pass body: W grid elements at a time
// through the portable SIMD layer (interior columns for the x axis,
// contiguous x-rows for y/z); every element sees the same fma chain over the
// taps in the same order in both instantiations, so TME_SIMD=scalar and
// native are bitwise identical.  The 4-argument form follows the TME_SIMD
// environment knob; pass an explicit mode for A/B parity tests and benches.
void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out);
void convolve_axis(const Grid3d& in, const Kernel1d& kernel, ConvAxis axis,
                   Grid3d& out, simd::Mode mode);

// The convolution stencil along one axis of every block of n_out outputs
// whose halo starts `reach` cells before the block and holds n_out + 2 reach
// cells (one node block of a decomposed level).
struct BlockConvStencil {
  std::size_t n_out = 0;
  long reach = 0;
  AxisStencil stencil;
};

// Builds it for `kernel`.  Throws std::invalid_argument when `reach` does
// not cover the kernel's taps.
BlockConvStencil conv_block_stencil(const Kernel1d& kernel, std::size_t n_out,
                                    long reach);

// Block form for one node (pool-free): the output block `out_dims` at global
// origin (ox, oy, oz), reading a halo that extends the block along `axis`
// only.  Each element equals convolve_axis's on the whole grid bitwise.
// Throws std::invalid_argument when the halo does not cover the taps.
//
// `prebuilt`, when not null, is conv_block_stencil(kernel, ...) for this
// axis: used as is when the block and halo have its geometry, so a caller
// that runs many node blocks of one level builds their stencil once.  The
// stencil is built from `kernel` otherwise.
Grid3d convolve_axis_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                           const GridDims& out_dims, const Kernel1d& kernel,
                           ConvAxis axis, const BlockConvStencil* prebuilt = nullptr);

// Full separable pass: z(y(x(in))) with per-axis kernels.
Grid3d convolve_separable(const Grid3d& in, const Kernel1d& kx,
                          const Kernel1d& ky, const Kernel1d& kz);

// Accumulating tensor-structured convolution:
//   out += scale * sum over terms of separable convolutions.
struct SeparableTerm {
  Kernel1d kx, ky, kz;
};
void convolve_tensor(const Grid3d& in, const std::vector<SeparableTerm>& terms,
                     double scale, Grid3d& out);

// y += scale * x element-wise — convolve_tensor's term accumulation.
void axpy(double scale, const Grid3d& x, Grid3d& y);

// Brute-force range-limited dense 3D convolution (reference for tests and the
// B-spline-MSM baseline cost):  out[n] = sum_{|m_j| <= cutoff} K3[m] in[n-m].
// K3 is given as a lambda-free dense cube of (2c+1)^3 taps, x-fastest.
void convolve_dense3d(const Grid3d& in, const std::vector<double>& taps3d,
                      int cutoff, Grid3d& out);

// Block form for one node (pool-free), reading a halo of `cutoff` cells
// around the output block at global origin (ox, oy, oz).
Grid3d convolve_dense3d_block(const ExtendedBlock& halo, long ox, long oy, long oz,
                              const GridDims& out_dims,
                              const std::vector<double>& taps3d, int cutoff);

}  // namespace tme
