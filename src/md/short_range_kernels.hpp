// Cell sweep and batched pair kernels for the short-range engine — the
// vectorized heart of the software nonbond pipelines.
//
// sweep_cells() walks a range of cells in the engine's fixed enumeration
// order (per cell: the pairs inside the cell, then each forward neighbour
// cell; per atom a, one contiguous j-run of cell-sorted atoms b).  Each
// j-run is filtered W candidates at a time: the minimum-image r² of the
// whole run is computed with the portable SIMD layer (util/simd.hpp) and
// the kept lanes' indices are compressed into a PairBatch without a
// per-candidate branch.  A per-atom excluded-partner range test then skips
// Topology::excluded's binary search for almost every kept pair.  When the
// batch fills, its geometry and pair parameters are gathered, the batch is
// evaluated by evaluate_pair_batch() — the segmented-polynomial erfc table
// in r² or the analytic erfc, plus the precombined Lorentz–Berthelot LJ
// term — and the results are accumulated serially in enumeration order.
//
// Every stage runs the identical op sequence in the native instantiation
// and in its W = 1 scalar twin, so TME_SIMD=scalar and native are bitwise
// interchangeable; and because the accumulation order is the enumeration
// order, where a batch is cut never moves a bit.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt) so the parity contract survives compiler fusion; the
// fused steps are spelled out with simd::fma / simd::fma1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ewald/force_table.hpp"
#include "md/topology.hpp"
#include "util/simd.hpp"
#include "util/vec3.hpp"

namespace tme {

// SoA batch of filtered pairs (inside the cutoff, not excluded), kept in
// cell-sweep enumeration order so the scalar accumulation that follows is
// bitwise independent of the evaluation width.  The arrays are allocated
// to the batch's capacity (plus padding room); size() is the pair count.
struct PairBatch {
  // Inputs, one entry per pair.
  std::vector<double> dx, dy, dz;      // minimum-image displacement a - b
  std::vector<double> r2;              // |d|²
  std::vector<double> qq;              // kCoulomb * q_a * q_b
  std::vector<double> c6, c12, e_shift;  // mixed LJ parameters
  std::vector<std::uint32_t> ia, ib;   // cell-sorted particle indices

  // Outputs of evaluate_pair_batch, parallel to the inputs.
  std::vector<double> e_coul, e_lj, f_over_r;

  // Real (unpadded) pair count — the bound for the accumulation loop.
  std::size_t size() const { return count_; }
  // Pair count rounded up by finalize() — the bound for the vector loops.
  std::size_t padded_size() const { return padded_; }

  void clear() { count_ = padded_ = 0; }
  // Makes room for `n` pairs plus one vector of padding in every array.
  void reserve(std::size_t n);

  void push(double dx_, double dy_, double dz_, double r2_, double qq_,
            double c6_, double c12_, double e_shift_, std::uint32_t ia_,
            std::uint32_t ib_) {
    if (count_ + 1 + simd::kNativeWidth > r2.size()) reserve(2 * count_ + 1);
    const std::size_t i = count_++;
    dx[i] = dx_;
    dy[i] = dy_;
    dz[i] = dz_;
    r2[i] = r2_;
    qq[i] = qq_;
    c6[i] = c6_;
    c12[i] = c12_;
    e_shift[i] = e_shift_;
    ia[i] = ia_;
    ib[i] = ib_;
  }

  // Pads the input arrays with benign entries (r2 = 1, everything else 0) up
  // to a multiple of `width`, so the vector loop never reads a partial lane;
  // size() keeps reporting the real pair count.  Call once after the last
  // push and before evaluation.
  void finalize(int width);

 private:
  template <int W>
  friend class CellSweep;
  std::size_t count_ = 0;
  std::size_t padded_ = 0;
};

// Coulomb kernel configuration for a batch evaluation: `table` selects the
// segmented-polynomial r² path (non-null) or the analytic erfc path.
struct PairKernelConfig {
  double alpha = 0.0;
  const ForceTable* table = nullptr;
};

// Fills batch.e_coul / e_lj / f_over_r for every pair.  `mode` picks the
// native-width or the W = 1 instantiation of the same kernel template; both
// produce bitwise-identical outputs.  The analytic Coulomb path (erfc/sqrt)
// stays scalar per lane in both modes — only the LJ term vectorizes there;
// the tabulated path vectorizes end to end.  Lanes with r² below the
// table's range take the analytic kernel; a NaN r² yields NaN outputs.
void evaluate_pair_batch(PairBatch& batch, const PairKernelConfig& config,
                         simd::Mode mode);

// Everything one short-range call's cell sweep reads, built once per call by
// ShortRangeEngine::compute.  Particle arrays are indexed by cell-sorted
// position k; x/y/z hold simd::kNativeWidth zeros past the last particle so
// full-width loads at the end of a j-run stay in bounds (the extra lanes
// are masked off).
struct SweepInput {
  std::vector<double> x, y, z, q;
  std::vector<std::uint32_t> type;  // compressed LJ type
  std::vector<std::uint32_t> orig;  // original particle index

  // Cells: particles of cell c are [cell_start[c], cell_start[c + 1]); its
  // forward neighbours are stencil[stencil_start[c] .. stencil_start[c+1]).
  std::vector<std::size_t> cell_start, stencil_start, stencil;

  // Precombined LJ table, ntypes × ntypes row-major.
  std::vector<double> mix_c6, mix_c12, mix_shift;
  std::size_t ntypes = 0;

  // Exclusions: original indices of sorted particle k's excluded partners
  // all lie in [excl_lo[k], excl_hi[k]] (empty when lo > hi); `topology`
  // decides the pairs inside that range.
  std::vector<std::uint32_t> excl_lo, excl_hi;
  const Topology* topology = nullptr;

  Vec3 box;              // orthorhombic box lengths
  double cutoff2 = 0.0;  // pairs with r² >= cutoff2 (or r² == 0) are dropped
  PairKernelConfig kernel;
};

// One sweep's private accumulators, merged in fixed order by the engine.
struct SweepPartial {
  std::vector<Vec3> forces;  // indexed by cell-sorted particle index
  double energy_coulomb = 0.0;
  double energy_lj = 0.0;
  std::size_t pairs = 0;     // pairs evaluated (inside cutoff, not excluded)
  std::size_t examined = 0;  // candidate pairs whose r² was computed
};

// Sweeps cells [c_begin, c_end) and accumulates into `out` (whose forces
// must be sized to the particle count).  `batch` is scratch storage.
void sweep_cells(const SweepInput& in, std::size_t c_begin, std::size_t c_end,
                 PairBatch& batch, SweepPartial& out, simd::Mode mode);

}  // namespace tme
