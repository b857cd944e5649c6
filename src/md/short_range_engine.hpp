// Parallel short-range engine — the software counterpart of MDGRAPE-4A's 64
// nonbond force pipelines (paper Sec. II).
//
// Where the serial reference loop (md/short_range.hpp) walks the cell list
// on one thread and evaluates erfc/sqrt per pair, this engine mirrors what
// the hardware does per step:
//  - particles are packed into cell-sorted SoA buffers (x/y/z/q/type), the
//    analogue of the 64-atom cell blocks staged in the pipelines' local
//    memories;
//  - per-type Lennard-Jones parameters are precombined into a flat mixing
//    table (4εσ⁶, 4εσ¹², cutoff shift) instead of re-deriving
//    Lorentz–Berthelot and σ⁶ powers inside the pair loop;
//  - the erfc Coulomb kernel runs through a segmented-polynomial table in
//    r² (ewald/force_table.hpp), the pipelines' table-lookup function
//    evaluator — the default — or analytically (CoulombKernel in the
//    params);
//  - each atom's neighbour-cell j-runs are distance-filtered W candidates at
//    a time, and the kept pairs are buffered into SoA batches evaluated W at
//    a time by the portable SIMD kernel (md/short_range_kernels.hpp); the
//    W = 1 scalar twin (TME_SIMD=scalar) is bitwise identical;
//  - cells are traversed in parallel batches with thread-private
//    force/energy/virial-style accumulators, reduced in fixed batch order so
//    a given pool size always reproduces the same bits (different pool sizes
//    agree to floating-point reassociation, ~1e-15 relative).
//
// The engine is stateless: every call rebuilds its cell list and buffers
// from the positions, so a call's result depends only on its inputs (no
// pair list whose build step would leak into the bits of later steps).
#pragma once

#include <memory>

#include "ewald/force_table.hpp"
#include "md/short_range.hpp"
#include "md/system.hpp"
#include "md/topology.hpp"
#include "util/simd.hpp"

namespace tme {

class ThreadPool;

class ShortRangeEngine {
 public:
  // Builds the Coulomb kernel table once (when params.kernel is kTabulated);
  // the per-step buffers are rebuilt on every compute() call.
  explicit ShortRangeEngine(const ShortRangeParams& params);

  const ShortRangeParams& params() const { return params_; }

  // Non-null iff the engine runs the tabulated kernel.
  const ForceTable* force_table() const { return table_.get(); }

  // Which pair-kernel instantiation this engine runs (resolved once at
  // construction from params.simd / the TME_SIMD environment knob).  Scalar
  // and native produce bitwise-identical results for a given build.
  simd::Mode simd_mode() const { return mode_; }

  // Accumulates forces into system.forces (does not clear them), exactly
  // like compute_short_range.  `pool` selects the worker pool (nullptr = the
  // process-wide pool); results for a given pool size are deterministic.
  ShortRangeResult compute(ParticleSystem& system, const Topology& topology,
                           ThreadPool* pool = nullptr) const;

 private:
  ShortRangeParams params_;
  std::unique_ptr<ForceTable> table_;
  simd::Mode mode_ = simd::Mode::kNative;
};

}  // namespace tme
