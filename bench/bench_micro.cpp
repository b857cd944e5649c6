// Google-benchmark microbenchmarks of the numerical kernels: batched
// B-spline evaluation (the LRU's per-particle coefficients), FFT sizes the
// hardware uses, separable vs dense convolution (the GCU workload), charge
// assignment and back interpolation throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/gaussian_fit.hpp"
#include "core/grid_kernel.hpp"
#include "ewald/charge_assignment.hpp"
#include "fft/fft3d.hpp"
#include "grid/separable_conv.hpp"
#include "spline/bspline.hpp"
#include "util/simd.hpp"
#include "util/rng.hpp"

namespace {

using namespace tme;

// The batched B-spline kernel as BI runs it (weights and derivatives), on
// one chunk of atom-axes W = simd::kNativeWidth at a time; items are
// atom-axes.
void BM_BsplineWeights(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  constexpr int W = simd::kNativeWidth;
  constexpr std::size_t n = ChargeAssigner::kChunkAtoms;
  const std::size_t up = static_cast<std::size_t>(p);
  Rng rng(1);
  std::vector<double> u(n);
  for (double& x : u) x = rng.uniform(0.0, 32.0);
  std::vector<long> m0(n);
  std::vector<double> w(n * up), d(n * up);
  for (auto _ : state) {
    for (std::size_t a = 0; a + W <= n; a += W) {
      bspline_weights_lanes<W>(p, &u[a], &m0[a], &w[a * up], &d[a * up], up);
    }
    benchmark::DoNotOptimize(w.data());
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_BsplineWeights)->Arg(4)->Arg(6)->Arg(8);

void BM_Fft3d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Fft3d fft(n, n, n);
  Rng rng(2);
  std::vector<std::complex<double>> data(fft.size());
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), 0.0};
  for (auto _ : state) {
    fft.forward(data);
    fft.inverse(data);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(fft.size()));
}
BENCHMARK(BM_Fft3d)->Arg(16)->Arg(32)->Arg(64);

void BM_SeparableConvolution(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto terms = fit_shell_gaussians(2.2, 4);
  const auto kernels =
      build_level_kernels(terms, 6, {n, n, n}, {0.31, 0.31, 0.31}, 8);
  Grid3d q(n, n, n);
  Rng rng(3);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  Grid3d out(q.dims());
  for (auto _ : state) {
    out.fill(0.0);
    convolve_tensor(q, kernels, 1.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(q.size()));
}
BENCHMARK(BM_SeparableConvolution)->Arg(16)->Arg(32);

void BM_DenseConvolution(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto terms = fit_shell_gaussians(2.2, 4);
  const auto kernels =
      build_level_kernels(terms, 6, {n, n, n}, {0.31, 0.31, 0.31}, 8);
  const auto cube = dense_kernel_cube(kernels, 8);
  Grid3d q(n, n, n);
  Rng rng(4);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.uniform(-1.0, 1.0);
  Grid3d out(q.dims());
  for (auto _ : state) {
    convolve_dense3d(q, cube, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(q.size()));
}
BENCHMARK(BM_DenseConvolution)->Arg(16);

void BM_ChargeAssignment(benchmark::State& state) {
  const std::size_t atoms = static_cast<std::size_t>(state.range(0));
  const Box box{{6.0, 6.0, 6.0}};
  const ChargeAssigner ca(box, {32, 32, 32}, 6);
  Rng rng(5);
  std::vector<Vec3> pos(atoms);
  std::vector<double> q(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    pos[i] = {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.assign(pos, q));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(atoms));
}
BENCHMARK(BM_ChargeAssignment)->Arg(1000)->Arg(10000);

void BM_BackInterpolation(benchmark::State& state) {
  const std::size_t atoms = static_cast<std::size_t>(state.range(0));
  const Box box{{6.0, 6.0, 6.0}};
  const ChargeAssigner ca(box, {32, 32, 32}, 6);
  Rng rng(6);
  std::vector<Vec3> pos(atoms);
  std::vector<double> q(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    pos[i] = {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    q[i] = rng.uniform(-1.0, 1.0);
  }
  const Grid3d grid = ca.assign(pos, q);
  std::vector<Vec3> forces(atoms);
  for (auto _ : state) {
    forces.assign(atoms, Vec3{});
    benchmark::DoNotOptimize(ca.back_interpolate(grid, pos, q, &forces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(atoms));
}
BENCHMARK(BM_BackInterpolation)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
