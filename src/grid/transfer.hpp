// Grid transfer operators of the TME hierarchy (paper Fig. 2(e)(f)).
//
// Restriction maps level-l grid charges to the coarser level l+1:
//   Q^{l+1}_m = sum_k J_k Q^l_{2m+k}        (axis-wise, periodic)
// Prolongation maps level-(l+1) grid potentials back to level l:
//   P^l_n    += sum_m J_{n-2m} P^{l+1}_m
// where J are the two-scale coefficients of the order-p central B-spline.
// The two maps are adjoint, a property the tests rely on.  Both run as three
// axis passes of grid/block.hpp's stencil body, on a whole periodic grid or
// on one node's halo block.
#pragma once

#include "grid/block.hpp"
#include "grid/grid3d.hpp"

namespace tme {

// Each extent of `fine` must be even; returns the half-size coarse grid.
Grid3d restrict_grid(const Grid3d& fine, int p);

// Returns the fine grid of doubled extents.
Grid3d prolong_grid(const Grid3d& coarse, int p);

// Block forms for one node (pool-free): the output block `out` starts at
// global cell (ox, oy, oz) of the target level, and `fine` / `coarse` is the
// halo of the source level.  Throw std::invalid_argument when the halo does
// not cover the stencil.
Grid3d restrict_block(const ExtendedBlock& fine, long ox, long oy, long oz,
                      const GridDims& out, int p);
Grid3d prolong_block(const ExtendedBlock& coarse, long ox, long oy, long oz,
                     const GridDims& out, int p);

}  // namespace tme
