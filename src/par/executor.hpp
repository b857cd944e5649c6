// Batched execution of per-node TME work behind one interface.
//
// ParallelTme builds every node's halo buffer for a phase (importing halos
// is where traffic is logged, so it stays on the coordinator), then hands
// the batch of pure tasks to a NodeExecutor and integrates the returned
// blocks in fixed node order.  SerialExecutor runs each task inline — the
// single-process behaviour the simulated machine always had.  WorkerFleet
// (par/fleet.hpp) ships the same tasks to real worker processes over a
// Transport.  Every task runs the block form of the serial Tme's own
// kernels (grid/transfer, grid/separable_conv, ewald/charge_assignment) on
// its halo — pool-free, the same SIMD code — and results are integrated in
// task order, so the forces are bitwise independent of which executor — and
// which process — ran them.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "grid/block.hpp"
#include "grid/grid3d.hpp"
#include "grid/separable_conv.hpp"
#include "util/vec3.hpp"

namespace tme::par {

// Everything a worker needs to execute any task: geometry, spline order,
// and the per-level separable kernels.  Built
// once by ParallelTme from its Tme; shipped verbatim to workers in the Init
// message so they never construct a Tme (whose FFT planning would drag the
// thread pool into a forked child).
struct PipelineContext {
  Box box;
  int p = 6;
  GridDims fine_global;
  // kernels[l - 1] holds level l's separable terms (levels 1 .. L).
  std::vector<std::vector<SeparableTerm>> kernels;
  // conv_stencils[l - 1][term][axis]: that kernel's stencil for the node
  // blocks of ParallelTme's decomposition, built once per ParallelTme
  // (empty where the halo cannot cover the kernel).  Not shipped to
  // workers: a decoded context has none, and its tasks build their own.
  std::vector<std::vector<std::array<BlockConvStencil, 3>>> conv_stencils;
};

// One per-node unit of grid work: the output block `out_dims` at global
// origin (ox, oy, oz) of the target level, computed from `halo`.  The
// (level, term, axis) triple keys the convolution kernel into
// PipelineContext::kernels on whichever side runs it.
struct GridBlockTask {
  enum class Kind : std::uint16_t { kRestrict = 0, kProlong = 1, kConvolve = 2 };
  Kind kind = Kind::kRestrict;
  std::size_t node = 0;
  ExtendedBlock halo;
  long ox = 0, oy = 0, oz = 0;
  GridDims out_dims;
  // Convolution-only fields:
  int axis = 0;
  int level = 1;
  std::size_t term = 0;
};

struct CaBlockTask {
  std::size_t node = 0;
  std::vector<Vec3> positions;
  std::vector<double> charges;
  long x0 = 0, y0 = 0, z0 = 0;
  std::size_t ex = 0, ey = 0, ez = 0;
};

struct BiBlockTask {
  std::size_t node = 0;
  ExtendedBlock halo;
  std::vector<Vec3> positions;
  std::vector<double> charges;
};

// Back-interpolation result: `forces` is indexed like the task's positions;
// `q_phi` is this node's partial sum of q_i * phi_i (the coordinator adds
// partials in node order).
struct BiBlockResult {
  std::vector<Vec3> forces;
  double q_phi = 0.0;
};

class NodeExecutor {
 public:
  virtual ~NodeExecutor() = default;
  // Each run_* returns one result per task, in task order.
  virtual std::vector<Grid3d> run_grid(std::vector<GridBlockTask> tasks) = 0;
  virtual std::vector<ExtendedBlock> run_ca(std::vector<CaBlockTask> tasks) = 0;
  virtual std::vector<BiBlockResult> run_bi(std::vector<BiBlockTask> tasks) = 0;
};

// Runs every task inline in the calling process.
class SerialExecutor : public NodeExecutor {
 public:
  explicit SerialExecutor(const PipelineContext& ctx) : ctx_(&ctx) {}

  std::vector<Grid3d> run_grid(std::vector<GridBlockTask> tasks) override;
  std::vector<ExtendedBlock> run_ca(std::vector<CaBlockTask> tasks) override;
  std::vector<BiBlockResult> run_bi(std::vector<BiBlockTask> tasks) override;

 private:
  const PipelineContext* ctx_;
};

// Shared by SerialExecutor and the worker loop: execute one task against a
// context.  Defined here so in-process and worker-process execution are the
// same code path by construction.  Tasks may arrive decoded from a socket:
// a halo that does not cover the stencil is rejected with
// std::invalid_argument, and a CA/BI atom whose support leaves the sleeve
// with std::logic_error.
Grid3d execute_grid_task(const PipelineContext& ctx, const GridBlockTask& task);
ExtendedBlock execute_ca_task(const PipelineContext& ctx, const CaBlockTask& task);
BiBlockResult execute_bi_task(const PipelineContext& ctx, const BiBlockTask& task);

}  // namespace tme::par
