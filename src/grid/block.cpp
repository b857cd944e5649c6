#include "grid/block.hpp"

#include "util/parallel.hpp"

namespace tme {

namespace {

// Row n reads src[n + shift - t] for every tap t, with row lo's weights.
bool in_window(const AxisStencil& s, std::size_t n, std::size_t lo, std::size_t shift) {
  for (std::size_t t = 0; t < s.width; ++t) {
    const std::size_t k = n * s.width + t;
    if (s.index[k] + t != n + shift || s.weight[k] != s.weight[lo * s.width + t]) {
      return false;
    }
  }
  return true;
}

// One output row: element ix sums tap t over the contiguous source row at
// src[idx[t] * stride + row_off + ix], so the row vectorizes across ix with
// the per-element tap order unchanged.
template <int W>
void conv_strided_row(const double* src, const std::size_t* idx, const double* w,
                      std::size_t width, std::size_t stride, std::size_t row_off,
                      double* dst_row, std::size_t nx) {
  using V = simd::vec<double, W>;
  std::size_t ix = 0;
  for (; ix + W <= nx; ix += W) {
    V acc = V::zero();
    for (std::size_t t = 0; t < width; ++t) {
      acc = V::fma(V::broadcast(w[t]), V::load(src + idx[t] * stride + row_off + ix),
                   acc);
    }
    acc.store(dst_row + ix);
  }
  if (ix < nx) {
    const int tail = static_cast<int>(nx - ix);
    V acc = V::zero();
    for (std::size_t t = 0; t < width; ++t) {
      acc = V::fma(V::broadcast(w[t]),
                   V::load_partial(src + idx[t] * stride + row_off + ix, tail), acc);
    }
    acc.store_partial(dst_row + ix, tail);
  }
}

// One x-axis line of outputs.  The window rows [lo, hi) form one contiguous
// row (row lo's taps read src[index + n - lo]) and run W outputs at a time;
// every other output is a one-element row of its own.  Both see the same
// per-element fma chain, so every output is bitwise invariant under W.
template <int W>
void conv_line_x(const double* src, double* dst, std::size_t n_out,
                 const AxisStencil& s) {
  const std::size_t w = s.width;
  for (std::size_t n = 0; n < n_out; ++n) {
    if (n == s.lo && s.hi > s.lo) {
      conv_strided_row<W>(src, &s.index[n * w], &s.weight[n * w], w, 1, 0, dst + n,
                          s.hi - n);
      n = s.hi - 1;
    } else {
      conv_strided_row<1>(src, &s.index[n * w], &s.weight[n * w], w, 1, 0, dst + n, 1);
    }
  }
}

// The pool-free body: lines [first, last) of one axis pass.  A line is an
// x-row (index y + ny*z) for the x axis, a z-plane for y, a y-column of
// x-rows for z.
template <int W>
void axis_pass_lines(const double* src, const GridDims& sd, double* dst,
                     const GridDims& dd, int axis, const AxisStencil& s,
                     std::size_t first, std::size_t last) {
  const std::size_t width = s.width;
  for (std::size_t line = first; line < last; ++line) {
    switch (axis) {
      case 0:
        conv_line_x<W>(src + line * sd.nx, dst + line * dd.nx, dd.nx, s);
        break;
      case 1:
        for (std::size_t n = 0; n < dd.ny; ++n) {
          conv_strided_row<W>(src + line * sd.ny * sd.nx, s.index.data() + n * width,
                              s.weight.data() + n * width, width, sd.nx, 0,
                              dst + (line * dd.ny + n) * dd.nx, dd.nx);
        }
        break;
      default:
        for (std::size_t n = 0; n < dd.nz; ++n) {
          conv_strided_row<W>(src, s.index.data() + n * width,
                              s.weight.data() + n * width, width, sd.nx * sd.ny,
                              line * sd.nx, dst + (n * dd.ny + line) * dd.nx,
                              dd.nx);
        }
        break;
    }
  }
}

}  // namespace

void find_window(AxisStencil& s, std::size_t n_out) {
  s.lo = s.hi = 0;
  for (std::size_t n = 0; n < n_out; ++n) {
    const std::size_t first = s.index[n * s.width];
    if (first < n || !in_window(s, n, n, first - n)) continue;
    s.lo = n;
    for (s.hi = n + 1; s.hi < n_out && in_window(s, s.hi, n, first - n);) ++s.hi;
    return;
  }
}

void axis_pass(const double* src, const GridDims& sd, double* dst,
               const GridDims& dd, int axis, const AxisStencil& s,
               simd::Mode mode, ThreadPool* pool) {
  const std::size_t lines = axis == 0 ? dd.ny * dd.nz : axis == 1 ? dd.nz : dd.ny;
  const bool native = mode == simd::Mode::kNative;
  auto run = [&](std::size_t first, std::size_t last) {
    if (native) {
      axis_pass_lines<simd::kNativeWidth>(src, sd, dst, dd, axis, s, first, last);
    } else {
      axis_pass_lines<1>(src, sd, dst, dd, axis, s, first, last);
    }
  };
  if (pool == nullptr) {
    run(0, lines);
  } else {
    parallel_for(*pool, 0, lines, [&](std::size_t line) { run(line, line + 1); });
  }
}

}  // namespace tme
