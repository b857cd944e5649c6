#include "par/executor.hpp"

#include <initializer_list>
#include <stdexcept>

#include "ewald/charge_assignment.hpp"
#include "grid/transfer.hpp"

namespace tme::par {

namespace {

// Block origins may come off the wire: bound them before the kernels do
// index arithmetic with them.
void check_origins(std::initializer_list<long> origins) {
  constexpr long kMaxCoord = 1L << 40;
  for (const long o : origins) {
    if (o < -kMaxCoord || o > kMaxCoord) {
      throw std::invalid_argument("node task: block origin out of range");
    }
  }
}

}  // namespace

Grid3d execute_grid_task(const PipelineContext& ctx, const GridBlockTask& task) {
  check_origins({task.ox, task.oy, task.oz, task.halo.x0, task.halo.y0, task.halo.z0});
  switch (task.kind) {
    case GridBlockTask::Kind::kRestrict:
      return restrict_block(task.halo, task.ox, task.oy, task.oz, task.out_dims,
                            ctx.p);
    case GridBlockTask::Kind::kProlong:
      return prolong_block(task.halo, task.ox, task.oy, task.oz, task.out_dims,
                           ctx.p);
    case GridBlockTask::Kind::kConvolve: {
      const std::size_t level_idx = static_cast<std::size_t>(task.level - 1);
      if (level_idx >= ctx.kernels.size() ||
          task.term >= ctx.kernels[level_idx].size() || task.axis < 0 ||
          task.axis > 2) {
        throw std::invalid_argument("execute_grid_task: kernel key out of range");
      }
      const SeparableTerm& t = ctx.kernels[level_idx][task.term];
      const Kernel1d& k = task.axis == 0 ? t.kx : (task.axis == 1 ? t.ky : t.kz);
      const BlockConvStencil* s =
          level_idx < ctx.conv_stencils.size() &&
                  task.term < ctx.conv_stencils[level_idx].size()
              ? &ctx.conv_stencils[level_idx][task.term][static_cast<std::size_t>(task.axis)]
              : nullptr;
      return convolve_axis_block(task.halo, task.ox, task.oy, task.oz,
                                 task.out_dims, k, static_cast<ConvAxis>(task.axis), s);
    }
  }
  throw std::invalid_argument("execute_grid_task: unknown task kind");
}

ExtendedBlock execute_ca_task(const PipelineContext& ctx, const CaBlockTask& task) {
  check_origins({task.x0, task.y0, task.z0});
  ExtendedBlock buffer;
  buffer.reset(task.x0, task.y0, task.z0, task.ex, task.ey, task.ez);
  ChargeAssigner(ctx.box, ctx.fine_global, ctx.p)
      .assign_block(buffer, task.positions, task.charges);
  return buffer;
}

BiBlockResult execute_bi_task(const PipelineContext& ctx, const BiBlockTask& task) {
  check_origins({task.halo.x0, task.halo.y0, task.halo.z0});
  BiBlockResult res;
  res.forces.assign(task.positions.size(), Vec3{});
  res.q_phi = ChargeAssigner(ctx.box, ctx.fine_global, ctx.p)
                  .back_interpolate_block(task.halo, task.positions, task.charges,
                                          &res.forces);
  return res;
}

std::vector<Grid3d> SerialExecutor::run_grid(std::vector<GridBlockTask> tasks) {
  std::vector<Grid3d> out;
  out.reserve(tasks.size());
  for (const GridBlockTask& t : tasks) out.push_back(execute_grid_task(*ctx_, t));
  return out;
}

std::vector<ExtendedBlock> SerialExecutor::run_ca(std::vector<CaBlockTask> tasks) {
  std::vector<ExtendedBlock> out;
  out.reserve(tasks.size());
  for (const CaBlockTask& t : tasks) out.push_back(execute_ca_task(*ctx_, t));
  return out;
}

std::vector<BiBlockResult> SerialExecutor::run_bi(std::vector<BiBlockTask> tasks) {
  std::vector<BiBlockResult> out;
  out.reserve(tasks.size());
  for (const BiBlockTask& t : tasks) out.push_back(execute_bi_task(*ctx_, t));
  return out;
}

}  // namespace tme::par
