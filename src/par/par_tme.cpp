#include "par/par_tme.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "grid/separable_conv.hpp"
#include "obs/metrics.hpp"
#include "util/constants.hpp"

namespace tme::par {

namespace {

// Degraded-machine context threaded through the traffic helpers: an optional
// host remapping for dead nodes plus the corruption stream retransmissions
// are drawn from.  Default-constructed = healthy machine.
struct FaultContext {
  const RecoveryPlan* plan = nullptr;
  const FaultInjector* faults = nullptr;
  hw::LinkTelemetry* links = nullptr;
};

// Log one logical message, mapped through the recovery plan (if any) and
// charged for CRC-detected retransmissions drawn from the corruption stream
// (if any).  Messages between blocks that now share a surviving host become
// node-local and are dropped from the log.
void log_transfer(TrafficLog* log, const std::string& phase, std::size_t words,
                  std::size_t from, std::size_t to, const TorusTopology& topo,
                  const FaultContext& ctx) {
  std::size_t hops;
  std::size_t host_from = from;
  std::size_t host_to = to;
  if (ctx.plan != nullptr) {
    host_from = ctx.plan->host(from);
    host_to = ctx.plan->host(to);
    if (host_from == host_to) return;
    hops = ctx.plan->hops(from, to);
    if (ctx.plan->rerouted(from, to)) {
      TME_COUNTER_ADD("par_tme/rerouted_messages", 1);
    }
  } else {
    hops = topo.hops(topo.coord(from), topo.coord(to));
  }
  log->add(phase, 1, words, hops);
  if (ctx.links != nullptr) {
    ctx.links->record_transfer(host_from, host_to, words * 4);
  }
  if (ctx.faults != nullptr && ctx.faults->config().link_error_rate > 0.0) {
    std::size_t retries = 0;
    const auto max_retries =
        static_cast<std::size_t>(ctx.faults->config().max_retries);
    while (retries < max_retries && ctx.faults->attempt_corrupted(hops)) {
      ++retries;
    }
    if (retries > 0) {
      log->add("fault retransmission", retries, retries * words, hops);
      TME_COUNTER_ADD("par_tme/nw_retries", retries);
      if (ctx.links != nullptr) {
        ctx.links->record_transfer(host_from, host_to, retries * words * 4,
                                   retries);
      }
    }
  }
}

// One piece of a halo axis that lives in a single owner block: halo cells
// [offset, offset + length) are the owner's local cells [local, local + length).
struct AxisRun {
  std::size_t offset, length, owner, local;
};

// Splits the global cells [start, start + extent) of an axis of `period`
// cells, cut into blocks of `block`, into owner-block runs in offset order:
// at most ceil(extent / block) + 1 of them, and a halo wider than the period
// visits an owner once per wrap.
std::vector<AxisRun> axis_runs(long start, std::size_t extent, std::size_t period,
                               std::size_t block) {
  std::vector<AxisRun> runs;
  std::size_t w = Grid3d::wrap(start, period);
  for (std::size_t i = 0; i < extent;) {
    const std::size_t local = w % block;
    const std::size_t length = std::min(extent - i, block - local);
    runs.push_back({i, length, w / block, local});
    i += length;
    w = (w + length) % period;
  }
  return runs;
}

// Visits a halo row by row in plain z -> y -> x cell order, one owner-block
// run at a time: fn(owner node, halo index of the run's first cell, owner
// block index of it, run length).  Both indices address contiguous x rows.
template <class Fn>
void for_each_run(const GridDecomposition& decomp, const ExtendedBlock& halo, Fn&& fn) {
  const GridDims& global = decomp.global();
  const GridDims& local = decomp.local();
  const TorusTopology& topo = decomp.topology();
  const std::vector<AxisRun> xs = axis_runs(halo.x0, halo.nx, global.nx, local.nx);
  const std::vector<AxisRun> ys = axis_runs(halo.y0, halo.ny, global.ny, local.ny);
  const std::vector<AxisRun> zs = axis_runs(halo.z0, halo.nz, global.nz, local.nz);
  for (const AxisRun& z : zs) {
    for (std::size_t dz = 0; dz < z.length; ++dz) {
      for (const AxisRun& y : ys) {
        for (std::size_t dy = 0; dy < y.length; ++dy) {
          const std::size_t halo_row = ((z.offset + dz) * halo.ny + y.offset + dy) * halo.nx;
          const std::size_t block_row =
              ((z.local + dz) * local.ny + y.local + dy) * local.nx;
          for (const AxisRun& x : xs) {
            fn(topo.index({x.owner, y.owner, z.owner}), halo_row + x.offset,
               block_row + x.local, x.length);
          }
        }
      }
    }
  }
}

// Fill a node's extended buffer from the distributed grid; every cell that
// lives on another node is a received word.  Messages are grouped by source
// node, hops measured on the torus.
void import_halo(const DistributedGrid& grid, const GridDecomposition& decomp,
                 const NodeCoord& me, ExtendedBlock& buffer,
                 const std::string& phase, TrafficLog* log,
                 const FaultContext& ctx = {}) {
  const TorusTopology& topo = decomp.topology();
  const std::size_t me_idx = topo.index(me);
  std::vector<std::size_t> words_from(topo.node_count(), 0);
  for_each_run(decomp, buffer, [&](std::size_t src, std::size_t at, std::size_t from,
                                   std::size_t n) {
    std::copy_n(grid.block(src).data() + from, n, buffer.data.data() + at);
    if (src != me_idx) words_from[src] += n;
  });
  if (log != nullptr) {
    for (std::size_t src = 0; src < words_from.size(); ++src) {
      if (words_from[src] == 0) continue;
      log_transfer(log, phase, words_from[src], src, me_idx, topo, ctx);
    }
  }
}

// Scatter-accumulate a node's sleeved buffer back into the distributed grid
// (used by CA: contributions written outside the owned block travel to the
// neighbour that owns them).  Zero cells are neither added nor sent, and
// cells are added in the buffer's own order, so a sleeve that wraps onto a
// cell twice sums in the same order as a plain cell loop.
void export_sleeves(DistributedGrid& grid, const GridDecomposition& decomp,
                    const NodeCoord& me, const ExtendedBlock& buffer,
                    const std::string& phase, TrafficLog* log,
                    const FaultContext& ctx = {}) {
  const TorusTopology& topo = decomp.topology();
  const std::size_t me_idx = topo.index(me);
  std::vector<std::size_t> words_to(topo.node_count(), 0);
  for_each_run(decomp, buffer, [&](std::size_t dst, std::size_t at, std::size_t to,
                                   std::size_t n) {
    const double* src = buffer.data.data() + at;
    double* out = grid.block(dst).data() + to;
    std::size_t sent = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (src[i] == 0.0) continue;
      out[i] += src[i];
      ++sent;
    }
    if (dst != me_idx) words_to[dst] += sent;
  });
  if (log != nullptr) {
    for (std::size_t dst = 0; dst < words_to.size(); ++dst) {
      if (words_to[dst] == 0) continue;
      log_transfer(log, phase, words_to[dst], me_idx, dst, topo, ctx);
    }
  }
}

}  // namespace

// --- DistributedGrid ---------------------------------------------------------

DistributedGrid::DistributedGrid(const GridDecomposition& decomp)
    : decomp_(&decomp) {
  blocks_.assign(decomp.node_count(), Grid3d(decomp.local()));
}

DistributedGrid::DistributedGrid(const GridDecomposition& decomp,
                                 std::vector<Grid3d> blocks)
    : decomp_(&decomp), blocks_(std::move(blocks)) {
  if (blocks_.size() != decomp.node_count()) {
    throw std::invalid_argument("DistributedGrid: one block per node required");
  }
  for (const Grid3d& b : blocks_) {
    if (!(b.dims() == decomp.local())) {
      throw std::invalid_argument("DistributedGrid: block dims mismatch");
    }
  }
}

Grid3d DistributedGrid::assemble() const {
  const GridDecomposition& d = *decomp_;
  Grid3d out(d.global());
  const GridDims& local = d.local();
  for (std::size_t n = 0; n < blocks_.size(); ++n) {
    const NodeCoord c = d.topology().coord(n);
    for (std::size_t lz = 0; lz < local.nz; ++lz) {
      for (std::size_t ly = 0; ly < local.ny; ++ly) {
        for (std::size_t lx = 0; lx < local.nx; ++lx) {
          out.at(d.origin_x(c) + lx, d.origin_y(c) + ly, d.origin_z(c) + lz) =
              blocks_[n].at(lx, ly, lz);
        }
      }
    }
  }
  return out;
}

DistributedGrid DistributedGrid::distribute(const Grid3d& global,
                                            const GridDecomposition& decomp) {
  if (!(global.dims() == decomp.global())) {
    throw std::invalid_argument("DistributedGrid::distribute: dims mismatch");
  }
  DistributedGrid out(decomp);
  const GridDims& local = decomp.local();
  for (std::size_t n = 0; n < out.node_count(); ++n) {
    const NodeCoord c = decomp.topology().coord(n);
    for (std::size_t lz = 0; lz < local.nz; ++lz) {
      for (std::size_t ly = 0; ly < local.ny; ++ly) {
        for (std::size_t lx = 0; lx < local.nx; ++lx) {
          out.block(n).at(lx, ly, lz) = global.at(decomp.origin_x(c) + lx,
                                                  decomp.origin_y(c) + ly,
                                                  decomp.origin_z(c) + lz);
        }
      }
    }
  }
  return out;
}

// --- ParallelTme -------------------------------------------------------------

ParallelTme::ParallelTme(const Box& box, const TmeParams& params,
                         const TorusTopology& nodes)
    : box_(box), tme_(box, params), topo_(nodes.nx(), nodes.ny(), nodes.nz()) {
  for (int level = 1; level <= params.levels + 1; ++level) {
    level_decomp_.emplace_back(tme_.level_dims(level), topo_);
  }
  ctx_.box = box_;
  ctx_.p = params.order;
  ctx_.fine_global = tme_.level_dims(1);
  for (int l = 1; l <= params.levels; ++l) {
    ctx_.kernels.push_back(tme_.level_kernels(l));
    // The level convolution's node blocks all share one stencil per (term,
    // axis): the block is the decomposition's local extent, its halo reaches
    // min(g_c, period) cells either side (see compute).
    const GridDecomposition& d = level_decomp_[static_cast<std::size_t>(l - 1)];
    const std::size_t local[3] = {d.local().nx, d.local().ny, d.local().nz};
    const std::size_t period[3] = {d.global().nx, d.global().ny, d.global().nz};
    auto& level = ctx_.conv_stencils.emplace_back(ctx_.kernels.back().size());
    for (std::size_t term = 0; term < level.size(); ++term) {
      const SeparableTerm& t = ctx_.kernels.back()[term];
      const Kernel1d* k[3] = {&t.kx, &t.ky, &t.kz};
      for (int axis = 0; axis < 3; ++axis) {
        const long reach = std::min<long>(params.grid_cutoff,
                                          static_cast<long>(period[axis]));
        if (reach < k[axis]->cutoff) continue;  // compute's task throws
        level[term][static_cast<std::size_t>(axis)] =
            conv_block_stencil(*k[axis], local[axis], reach);
      }
    }
  }
  serial_exec_ = std::make_unique<SerialExecutor>(ctx_);
}

void ParallelTme::set_fault_injector(const FaultInjector* faults) {
  faults_ = faults;
  plan_.reset();
  if (faults != nullptr && faults->has_structural_faults()) {
    plan_ = std::make_unique<RecoveryPlan>(topo_, *faults);
  }
}

void ParallelTme::set_link_telemetry(hw::LinkTelemetry* links) {
  links_ = links;
}

DistributedGrid ParallelTme::solve_potential(const DistributedGrid& finest_charges,
                                             TrafficLog* log) const {
  TME_PHASE("par_tme_solve");
  TME_GAUGE_SET("par_tme/nodes", topo_.node_count());
  const FaultContext ctx{plan_.get(), faults_, links_};
  NodeExecutor& exec = executor();
  if (log != nullptr && plan_ != nullptr) {
    // One-time block migration: every dead node's per-level blocks are
    // re-fetched by the surviving host (from the neighbour-held redundant
    // copy) before the pipeline starts.
    for (const std::size_t dead : plan_->faults().dead_nodes()) {
      const std::size_t host = plan_->host(dead);
      const std::size_t hops =
          topo_.hops(topo_.coord(dead), topo_.coord(host));
      for (const GridDecomposition& d : level_decomp_) {
        log->add("fault redistribution", 1, d.local().total(), hops);
        if (links_ != nullptr) {
          links_->record_transfer(dead, host, d.local().total() * 4);
        }
      }
    }
  }
  const TmeParams& params = tme_.params();
  const int levels = params.levels;
  const int p = params.order;
  const int gc = params.grid_cutoff;

  // -- Downward pass: restrictions -------------------------------------------
  // q[k] holds level k + 1's charges; the finest are the caller's own grid.
  std::vector<DistributedGrid> restricted;
  restricted.reserve(static_cast<std::size_t>(levels));
  std::vector<const DistributedGrid*> q{&finest_charges};
  for (int l = 1; l <= levels; ++l) {
    TME_PHASE("restriction");
    const GridDecomposition& fine_d = level_decomp_[static_cast<std::size_t>(l - 1)];
    const GridDecomposition& coarse_d = level_decomp_[static_cast<std::size_t>(l)];
    const int half_p = p / 2;
    std::vector<GridBlockTask> tasks;
    tasks.reserve(topo_.node_count());
    for (std::size_t n = 0; n < topo_.node_count(); ++n) {
      const NodeCoord me = topo_.coord(n);
      // Fine halo: output coarse cell m needs fine cells 2m +- p/2.
      GridBlockTask t;
      t.kind = GridBlockTask::Kind::kRestrict;
      t.node = n;
      const long fx0 = 2 * static_cast<long>(coarse_d.origin_x(me)) - half_p;
      const long fy0 = 2 * static_cast<long>(coarse_d.origin_y(me)) - half_p;
      const long fz0 = 2 * static_cast<long>(coarse_d.origin_z(me)) - half_p;
      t.halo.reset(fx0, fy0, fz0, 2 * coarse_d.local().nx + p,
                   2 * coarse_d.local().ny + p, 2 * coarse_d.local().nz + p);
      import_halo(*q.back(), fine_d, me, t.halo, "restriction halo", log, ctx);
      t.ox = static_cast<long>(coarse_d.origin_x(me));
      t.oy = static_cast<long>(coarse_d.origin_y(me));
      t.oz = static_cast<long>(coarse_d.origin_z(me));
      t.out_dims = coarse_d.local();
      tasks.push_back(std::move(t));
    }
    restricted.emplace_back(coarse_d, exec.run_grid(std::move(tasks)));
    q.push_back(&restricted.back());
  }

  // -- Top level: gather to the root, FFT convolution, broadcast back --------
  const GridDecomposition& top_d = level_decomp_[static_cast<std::size_t>(levels)];
  DistributedGrid phi;
  {
    TME_PHASE("top_fft");
    Grid3d top_global = q.back()->assemble();
    if (log != nullptr) {
      // Every non-root node ships its block up the tree and receives the
      // potentials back (paper Sec. IV.C octree; hop count = torus distance to
      // the root's corner as a proxy for the board-level route).
      for (std::size_t n = 1; n < topo_.node_count(); ++n) {
        const std::size_t words = top_d.local().total();
        log_transfer(log, "TMENW gather", words, n, 0, topo_, ctx);
        log_transfer(log, "TMENW scatter", words, 0, n, topo_, ctx);
      }
    }
    Grid3d top_phi_global = tme_.top_level().solve_potential(top_global);
    phi = DistributedGrid::distribute(top_phi_global, top_d);
  }

  // -- Upward pass: prolongation + per-level separable convolution ----------
  for (int l = levels; l >= 1; --l) {
    const GridDecomposition& fine_d = level_decomp_[static_cast<std::size_t>(l - 1)];
    const GridDecomposition& coarse_d = level_decomp_[static_cast<std::size_t>(l)];
    const int half_p = p / 2;

    // Prolongation: fine cell n needs coarse cells m with |n - 2m| <= p/2.
    DistributedGrid fine_phi;
    {
    TME_PHASE("prolongation");
    std::vector<GridBlockTask> tasks;
    tasks.reserve(topo_.node_count());
    for (std::size_t n = 0; n < topo_.node_count(); ++n) {
      const NodeCoord me = topo_.coord(n);
      GridBlockTask t;
      t.kind = GridBlockTask::Kind::kProlong;
      t.node = n;
      const long cx0 = (static_cast<long>(fine_d.origin_x(me)) - half_p - 1) / 2;
      const long cy0 = (static_cast<long>(fine_d.origin_y(me)) - half_p - 1) / 2;
      const long cz0 = (static_cast<long>(fine_d.origin_z(me)) - half_p - 1) / 2;
      const std::size_t ext_x =
          (fine_d.local().nx + static_cast<std::size_t>(p)) / 2 + 2;
      const std::size_t ext_y =
          (fine_d.local().ny + static_cast<std::size_t>(p)) / 2 + 2;
      const std::size_t ext_z =
          (fine_d.local().nz + static_cast<std::size_t>(p)) / 2 + 2;
      t.halo.reset(cx0, cy0, cz0, ext_x, ext_y, ext_z);
      import_halo(phi, coarse_d, me, t.halo, "prolongation halo", log, ctx);
      t.ox = static_cast<long>(fine_d.origin_x(me));
      t.oy = static_cast<long>(fine_d.origin_y(me));
      t.oz = static_cast<long>(fine_d.origin_z(me));
      t.out_dims = fine_d.local();
      tasks.push_back(std::move(t));
    }
    fine_phi = DistributedGrid(fine_d, exec.run_grid(std::move(tasks)));
    }  // prolongation phase

    // Separable level convolution: x, then y, then z axis passes; the
    // intermediate state is one grid per Gaussian term.
    TME_PHASE("convolution");
    const std::vector<SeparableTerm>& kernels = tme_.level_kernels(l);
    const std::size_t m_terms = kernels.size();
    const std::size_t nodes = topo_.node_count();
    const GridDims& local = fine_d.local();
    const std::size_t level_nx = fine_d.global().nx;
    const std::size_t level_ny = fine_d.global().ny;
    const std::size_t level_nz = fine_d.global().nz;

    std::vector<DistributedGrid> work;  // one per term, after each axis pass
    for (int axis = 0; axis < 3; ++axis) {
      // Halo extent along the convolved axis, clamped to the level period.
      const std::size_t n_axis = axis == 0 ? level_nx : (axis == 1 ? level_ny : level_nz);
      const long reach = std::min<long>(gc, static_cast<long>(n_axis));
      const std::size_t inputs = axis == 0 ? 1 : m_terms;

      // One task per (node, output term), in node-major order.  On the x
      // pass all M outputs convolve the same single input halo (imported —
      // and logged — once per node); on y/z each term has its own.
      std::vector<GridBlockTask> tasks(nodes * m_terms);
      for (std::size_t n = 0; n < nodes; ++n) {
        const NodeCoord me = topo_.coord(n);
        const long ox = static_cast<long>(fine_d.origin_x(me));
        const long oy = static_cast<long>(fine_d.origin_y(me));
        const long oz = static_cast<long>(fine_d.origin_z(me));
        for (std::size_t term = 0; term < inputs; ++term) {
          const DistributedGrid& src = axis == 0 ? *q[static_cast<std::size_t>(l - 1)]
                                                 : work[term];

          ExtendedBlock halo;
          switch (axis) {
            case 0:
              halo.reset(ox - reach, oy, oz, local.nx + 2 * reach, local.ny,
                         local.nz);
              break;
            case 1:
              halo.reset(ox, oy - reach, oz, local.nx, local.ny + 2 * reach,
                         local.nz);
              break;
            default:
              halo.reset(ox, oy, oz - reach, local.nx, local.ny,
                         local.nz + 2 * reach);
              break;
          }
          import_halo(src, fine_d, me, halo, "level convolution", log, ctx);

          // On the x pass every term convolves the same input; on y/z each
          // term convolves its own intermediate.
          const std::size_t out_terms_begin = axis == 0 ? 0 : term;
          const std::size_t out_terms_end = axis == 0 ? m_terms : term + 1;
          for (std::size_t out_t = out_terms_begin; out_t < out_terms_end; ++out_t) {
            GridBlockTask& t = tasks[n * m_terms + out_t];
            t.kind = GridBlockTask::Kind::kConvolve;
            t.node = n;
            t.ox = ox;
            t.oy = oy;
            t.oz = oz;
            t.out_dims = local;
            t.axis = axis;
            t.level = l;
            t.term = out_t;
            // The last task takes the halo; the x pass's others copy it.
            if (out_t + 1 < out_terms_end) {
              t.halo = halo;
            } else {
              t.halo = std::move(halo);
            }
          }
        }
      }
      std::vector<Grid3d> blocks = exec.run_grid(std::move(tasks));
      std::vector<std::vector<Grid3d>> term_blocks(m_terms);
      for (std::size_t term = 0; term < m_terms; ++term) {
        term_blocks[term].reserve(nodes);
        for (std::size_t n = 0; n < nodes; ++n) {
          term_blocks[term].push_back(std::move(blocks[n * m_terms + term]));
        }
      }
      work.clear();
      for (std::vector<Grid3d>& b : term_blocks) work.emplace_back(fine_d, std::move(b));
    }

    // Accumulate the M terms into the prolonged potential with the level
    // prefactor (Eq. 9), through convolve_tensor's own accumulation.
    const double scale = constants::kCoulomb / std::ldexp(1.0, l - 1);
    for (std::size_t n = 0; n < nodes; ++n) {
      for (std::size_t term = 0; term < m_terms; ++term) {
        axpy(scale, work[term].block(n), fine_phi.block(n));
      }
    }
    phi = std::move(fine_phi);
  }
  return phi;
}

CoulombResult ParallelTme::compute(std::span<const Vec3> positions,
                                   std::span<const double> charges,
                                   TrafficLog* log) const {
  TME_PHASE("par_tme");
  TME_COUNTER_ADD("par_tme/compute_calls", 1);
  TME_GAUGE_SET("par_tme/atoms", positions.size());
  const FaultContext ctx{plan_.get(), faults_, links_};
  NodeExecutor& exec = executor();
  const TmeParams& params = tme_.params();
  const GridDecomposition& fine_d = level_decomp_.front();
  const GridDims& local = fine_d.local();
  const int p = params.order;

  const std::vector<std::size_t> owner_of =
      assign_atoms_to_nodes(box_, positions, topo_);
  std::vector<std::vector<std::size_t>> node_atoms(topo_.node_count());
  for (std::size_t i = 0; i < owner_of.size(); ++i) {
    node_atoms[owner_of[i]].push_back(i);
  }

  // --- CA: per-node anterpolation into sleeved buffers, sleeve export ------
  DistributedGrid q(fine_d);
  const int sleeve = p / 2 + 1;  // paper Sec. IV.A: 4 sleeves for p = 6
  {
  TME_PHASE("charge_assignment");
  std::vector<CaBlockTask> tasks;
  tasks.reserve(topo_.node_count());
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    const NodeCoord me = topo_.coord(n);
    CaBlockTask t;
    t.node = n;
    t.x0 = static_cast<long>(fine_d.origin_x(me)) - sleeve;
    t.y0 = static_cast<long>(fine_d.origin_y(me)) - sleeve;
    t.z0 = static_cast<long>(fine_d.origin_z(me)) - sleeve;
    t.ex = local.nx + 2 * sleeve;
    t.ey = local.ny + 2 * sleeve;
    t.ez = local.nz + 2 * sleeve;
    t.positions.reserve(node_atoms[n].size());
    t.charges.reserve(node_atoms[n].size());
    for (const std::size_t i : node_atoms[n]) {
      t.positions.push_back(positions[i]);
      t.charges.push_back(charges[i]);
    }
    tasks.push_back(std::move(t));
  }
  std::vector<ExtendedBlock> buffers = exec.run_ca(std::move(tasks));
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    export_sleeves(q, fine_d, topo_.coord(n), buffers[n], "CA sleeve exchange",
                   log, ctx);
  }
  }  // charge_assignment phase

  // --- Grid pipeline --------------------------------------------------------
  const DistributedGrid phi = solve_potential(q, log);

  // --- BI: halo import of potentials, per-node interpolation ---------------
  CoulombResult out;
  out.forces.assign(positions.size(), Vec3{});
  double q_phi = 0.0;
  {
  TME_PHASE("back_interpolation");
  std::vector<BiBlockTask> tasks;
  tasks.reserve(topo_.node_count());
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    const NodeCoord me = topo_.coord(n);
    BiBlockTask t;
    t.node = n;
    t.halo.reset(static_cast<long>(fine_d.origin_x(me)) - sleeve,
                 static_cast<long>(fine_d.origin_y(me)) - sleeve,
                 static_cast<long>(fine_d.origin_z(me)) - sleeve,
                 local.nx + 2 * sleeve, local.ny + 2 * sleeve,
                 local.nz + 2 * sleeve);
    import_halo(phi, fine_d, me, t.halo, "BI grid transfer", log, ctx);
    t.positions.reserve(node_atoms[n].size());
    t.charges.reserve(node_atoms[n].size());
    for (const std::size_t i : node_atoms[n]) {
      t.positions.push_back(positions[i]);
      t.charges.push_back(charges[i]);
    }
    tasks.push_back(std::move(t));
  }
  std::vector<BiBlockResult> results = exec.run_bi(std::move(tasks));
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    for (std::size_t j = 0; j < node_atoms[n].size(); ++j) {
      out.forces[node_atoms[n][j]] = results[n].forces[j];
    }
    q_phi += results[n].q_phi;
  }
  }  // back_interpolation phase
  out.energy_reciprocal = 0.5 * q_phi;
  tme_.finish_energy(charges, out);
  return out;
}

Grid3d parallel_msm_convolution(const Grid3d& in, const std::vector<double>& taps3d,
                                int cutoff, const TorusTopology& topo,
                                TrafficLog* log) {
  const std::size_t width = static_cast<std::size_t>(2 * cutoff + 1);
  if (taps3d.size() != width * width * width) {
    throw std::invalid_argument("parallel_msm_convolution: taps size");
  }
  const GridDecomposition decomp(in.dims(), topo);
  const DistributedGrid dist = DistributedGrid::distribute(in, decomp);
  const GridDims& local = decomp.local();

  DistributedGrid out(decomp);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const NodeCoord me = topo.coord(n);
    ExtendedBlock halo;
    halo.reset(static_cast<long>(decomp.origin_x(me)) - cutoff,
               static_cast<long>(decomp.origin_y(me)) - cutoff,
               static_cast<long>(decomp.origin_z(me)) - cutoff,
               local.nx + 2 * static_cast<std::size_t>(cutoff),
               local.ny + 2 * static_cast<std::size_t>(cutoff),
               local.nz + 2 * static_cast<std::size_t>(cutoff));
    import_halo(dist, decomp, me, halo, "MSM dense halo", log);
    out.block(n) = convolve_dense3d_block(
        halo, static_cast<long>(decomp.origin_x(me)),
        static_cast<long>(decomp.origin_y(me)),
        static_cast<long>(decomp.origin_z(me)), local, taps3d, cutoff);
  }
  return out.assemble();
}

}  // namespace tme::par
