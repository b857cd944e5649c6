#include "md/short_range_kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "ewald/splitting.hpp"
#include "util/constants.hpp"

namespace tme {

void PairBatch::reserve(std::size_t n) {
  const std::size_t capacity = n + simd::kNativeWidth;
  if (capacity <= r2.size()) return;
  for (std::vector<double>* v :
       {&dx, &dy, &dz, &r2, &qq, &c6, &c12, &e_shift, &e_coul, &e_lj, &f_over_r}) {
    v->resize(capacity);
  }
  ia.resize(capacity);
  ib.resize(capacity);
}

void PairBatch::finalize(int width) {
  const std::size_t w = static_cast<std::size_t>(width);
  padded_ = ((count_ + w - 1) / w) * w;
  reserve(padded_);
  // Benign pad pairs: r2 = 1 keeps divisions and the table's segment clamp
  // well-defined; zero charge/LJ parameters make every pad output exactly 0.
  for (std::size_t i = count_; i < padded_; ++i) {
    r2[i] = 1.0;
    qq[i] = c6[i] = c12[i] = e_shift[i] = 0.0;
    e_coul[i] = e_lj[i] = f_over_r[i] = 0.0;
  }
}

namespace {

// Call before the analytic kernel's libm calls (std::erfc, std::exp).
// Without AVX512VL, GCC copies xmm16–31 into xmm0–15 with 512-bit moves
// that it does not count as dirtying the upper register state, so it omits
// the vzeroupper it owes before a call; glibc's legacy-SSE erfc then pays
// an AVX–SSE transition on every instruction (the scalar twin's analytic
// path measured ~20× slower).  The root fix is -mavx512vl in the AVX-512
// flags (CMakeLists.txt), open as ROADMAP item 3; delete this with it.
inline void clear_upper_state() {
#if defined(__AVX__)
  _mm256_zeroupper();
#endif
}

template <int W>
void eval_impl(PairBatch& b, const PairKernelConfig& cfg) {
  using V = simd::vec<double, W>;
  const std::size_t np = b.padded_size();

  // --- Coulomb: f_over_r and e_coul first (the LJ pass accumulates on top,
  // matching the serial kernel's per-pair order coulomb-then-LJ).
  if (cfg.table != nullptr) {
    const ForceTable& table = *cfg.table;
    const double* coeff = table.coeff();
    const double last_segment = static_cast<double>(table.segments() - 1);
    const V s_min = V::broadcast(table.s_min());
    const V inv_ds = V::broadcast(table.inv_ds());
    for (std::size_t i = 0; i < np; i += W) {
      const V r2v = V::load(&b.r2[i]);
      const V u = (r2v - s_min) * inv_ds;
      // Per-lane segment index and local coordinate — identical to the
      // scalar ForceTable::lookup truncation and round-off clamp.  The clamp
      // runs in double before the cast: lanes below the table (u < 0, later
      // overwritten by the analytic fallback) and NaN lanes read segment 0,
      // lanes past the last segment (round-off at s_max) read the last one.
      alignas(64) double u_arr[W];
      alignas(64) double t_arr[W];
      alignas(64) std::int64_t idx[W];
      u.store(u_arr);
      for (int l = 0; l < W; ++l) {
        const double uk = u_arr[l] > 0.0 ? std::min(u_arr[l], last_segment) : 0.0;
        const std::size_t k = static_cast<std::size_t>(uk);
        t_arr[l] = u_arr[l] - static_cast<double>(k);
        idx[l] = static_cast<std::int64_t>(8 * k);
      }
      const V t = V::load(t_arr);
      const V c0 = V::gather(coeff + 0, idx);
      const V c1 = V::gather(coeff + 1, idx);
      const V c2 = V::gather(coeff + 2, idx);
      const V c3 = V::gather(coeff + 3, idx);
      const V c4 = V::gather(coeff + 4, idx);
      const V c5 = V::gather(coeff + 5, idx);
      const V c6 = V::gather(coeff + 6, idx);
      const V c7 = V::gather(coeff + 7, idx);
      const V energy = V::fma(V::fma(V::fma(c3, t, c2), t, c1), t, c0);
      const V force = V::fma(V::fma(V::fma(c7, t, c6), t, c5), t, c4);
      const V qqv = V::load(&b.qq[i]);
      (qqv * energy).store(&b.e_coul[i]);
      (qqv * force).store(&b.f_over_r[i]);
      // Pairs below the table range fall back to the analytic kernel, like
      // the scalar lookup; both instantiations take the same per-lane path.
      unsigned bits = V::mask_bits(V::cmp_lt(r2v, s_min));
      if (bits != 0) clear_upper_state();
      while (bits != 0) {
        const int l = __builtin_ctz(bits);
        bits &= bits - 1;
        const ForceTable::Sample s = table.analytic(b.r2[i + l]);
        b.e_coul[i + l] = b.qq[i + l] * s.energy;
        b.f_over_r[i + l] = b.qq[i + l] * s.force_over_r;
      }
    }
  } else {
    // Analytic erfc/sqrt: scalar per pair in both modes (no portable vector
    // erfc); the LJ term below still vectorizes.
    clear_upper_state();
    const double alpha = cfg.alpha;
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double qq = b.qq[i];
      if (qq != 0.0) {
        const double r = std::sqrt(b.r2[i]);
        b.e_coul[i] = qq * g_short(r, alpha);
        b.f_over_r[i] = -qq * g_short_derivative(r, alpha) / r;
      } else {
        b.e_coul[i] = 0.0;
        b.f_over_r[i] = 0.0;
      }
    }
  }

  // --- Lennard-Jones from the precombined mixing parameters.
  const V one = V::broadcast(1.0);
  const V twelve = V::broadcast(12.0);
  const V six = V::broadcast(6.0);
  for (std::size_t i = 0; i < np; i += W) {
    const V r2v = V::load(&b.r2[i]);
    const V c6v = V::load(&b.c6[i]);
    const V c12v = V::load(&b.c12[i]);
    const V inv_r2 = one / r2v;
    const V inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const V elj = (c12v * inv_r6 - c6v) * inv_r6 - V::load(&b.e_shift[i]);
    const V flj = (twelve * c12v * inv_r6 - six * c6v) * inv_r6 * inv_r2;
    elj.store(&b.e_lj[i]);
    (V::load(&b.f_over_r[i]) + flj).store(&b.f_over_r[i]);
  }
}

// Pairs buffered between kernel evaluations.  The flush boundary is bitwise
// transparent: every pair's outputs depend only on its own lanes, and the
// scalar accumulation that follows runs in enumeration order regardless of
// where the batch was cut.  4096 pairs keeps the SoA working set (~14
// doubles/pair) inside L2.
constexpr std::size_t kFlushPairs = 4096;

// For every W-bit lane mask m, the positions of its set bits, lowest first
// (lane[m][0 .. popcount(m)); the remaining entries are 0).
template <int W>
struct LaneTable {
  std::array<std::array<std::uint8_t, W>, (1u << W)> lane{};
  constexpr LaneTable() {
    for (unsigned m = 0; m < (1u << W); ++m) {
      int j = 0;
      for (int l = 0; l < W; ++l) {
        if ((m >> l) & 1u) lane[m][j++] = static_cast<std::uint8_t>(l);
      }
    }
  }
};
template <int W>
constexpr LaneTable<W> kLaneTable{};

}  // namespace

// The cell sweep at one width.  Declared a friend of PairBatch: the filter
// writes kept indices straight into the batch's index arrays.
template <int W>
class CellSweep {
 public:
  using V = simd::vec<double, W>;

  CellSweep(const SweepInput& in, PairBatch& batch, SweepPartial& out)
      : in_(in),
        batch_(batch),
        out_(out),
        x_(in.box.x),
        y_(in.box.y),
        z_(in.box.z),
        cutoff2_(V::broadcast(in.cutoff2)) {
    batch_.clear();
    batch_.reserve(kFlushPairs);
  }

  void run(std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      const std::size_t a_begin = in_.cell_start[c];
      const std::size_t a_end = in_.cell_start[c + 1];
      // Pairs within the cell.
      for (std::size_t a = a_begin; a < a_end; ++a) filter_run(a, a + 1, a_end);
      // Pairs with the forward neighbour cells; cross-batch neighbours
      // accumulate into this sweep's private buffer, so no writes conflict.
      for (std::size_t s = in_.stencil_start[c]; s < in_.stencil_start[c + 1]; ++s) {
        const std::size_t nc = in_.stencil[s];
        for (std::size_t a = a_begin; a < a_end; ++a) {
          filter_run(a, in_.cell_start[nc], in_.cell_start[nc + 1]);
        }
      }
    }
    flush();
  }

 private:
  // One box axis for the minimum-image step.
  struct Axis {
    explicit Axis(double length)
        : neg_len(V::broadcast(-length)), inv_len(V::broadcast(1.0 / length)) {}
    V neg_len, inv_len;
  };

  // Minimum-image component d - L·nearbyint(d·(1/L)) with the subtraction
  // fused (one rounding).  util/vec3.hpp's min_image divides by L instead;
  // the two quotients differ by at most a few ulps of d/L, so they round to
  // different image counts only when d/L lies within about |d/L|·2⁻⁵⁰ of a
  // half-integer: a half-box tie on that axis.  With cutoff < L/2 such a
  // pair is dropped under either count; with cutoff >= L/2 (one cell per
  // axis) the minimum image is ambiguous there anyway.
  V image(V d, const Axis& ax) const {
    return V::fma(ax.neg_len, V::nearbyint(d * ax.inv_len), d);
  }
  static V norm2(V dx, V dy, V dz) { return V::fma(dz, dz, V::fma(dx, dx, dy * dy)); }

  // Appends the candidate pairs (a, b), b in [b_begin, b_end), that pass the
  // cutoff filter to the batch, in increasing b.
  void filter_run(std::size_t a, std::size_t b_begin, std::size_t b_end) {
    if (b_begin >= b_end) return;
    const std::size_t len = b_end - b_begin;
    out_.examined += len;
    // Every chunk writes W slots; reserve() adds a vector of slack, so room
    // for count + len pairs covers the last chunk's overhang.  Flushing
    // first keeps the batch within kFlushPairs unless one cell alone holds
    // more candidates.
    if (batch_.count_ + len > kFlushPairs) flush();
    std::size_t kept = batch_.count_;
    batch_.reserve(kept + len);
    std::uint32_t* ia = batch_.ia.data();
    std::uint32_t* ib = batch_.ib.data();

    // The keep mask is !(r2 >= cutoff2) && r2 != 0 (tested as !(0 >= r2):
    // r² is a sum of squares), so a NaN r² is kept and reaches the kernel
    // (non-finite forces stay visible to the guardrail).
    // Kept lanes are compressed through the lane table: every chunk writes W
    // index slots and advances the cursor by the popcount, so no branch
    // depends on the data.
    const V xa = V::broadcast(in_.x[a]);
    const V ya = V::broadcast(in_.y[a]);
    const V za = V::broadcast(in_.z[a]);
    const V zero = V::zero();
    const std::uint32_t a32 = static_cast<std::uint32_t>(a);
    constexpr unsigned kAllLanes = (1u << W) - 1u;
    for (std::size_t b = b_begin; b < b_end; b += W) {
      const V dx = image(xa - V::load(in_.x.data() + b), x_);
      const V dy = image(ya - V::load(in_.y.data() + b), y_);
      const V dz = image(za - V::load(in_.z.data() + b), z_);
      const V r2 = norm2(dx, dy, dz);
      const unsigned drop = V::mask_bits(V::cmp_ge(r2, cutoff2_)) |
                            V::mask_bits(V::cmp_ge(zero, r2));
      const std::size_t left = b_end - b;
      const unsigned live = left >= W ? kAllLanes : (1u << left) - 1u;
      const unsigned keep = ~drop & live;
      // A local copy of the lanes, so the index stores below cannot alias
      // the (byte-typed) table and the two loops vectorize.
      const std::array<std::uint8_t, W> lanes = kLaneTable<W>.lane[keep];
      const std::uint32_t b32 = static_cast<std::uint32_t>(b);
      for (int j = 0; j < W; ++j) ia[kept + j] = a32;
      for (int j = 0; j < W; ++j) ib[kept + j] = b32 + lanes[j];
      kept += static_cast<std::size_t>(__builtin_popcount(keep));
    }
    batch_.count_ = kept;
  }

  // Drops the excluded pairs, gathers the rest's geometry and pair
  // parameters, evaluates the batch, and accumulates the results in
  // enumeration order.
  void flush() {
    PairBatch& b = batch_;
    // Exclusions: a range test on the partner's original index rejects
    // almost every pair before Topology::excluded's binary search.
    std::size_t np = 0;
    for (std::size_t j = 0; j < b.count_; ++j) {
      const std::uint32_t a = b.ia[j];
      const std::uint32_t k = b.ib[j];
      const std::uint32_t ok = in_.orig[k];
      const bool excluded = ok >= in_.excl_lo[a] && ok <= in_.excl_hi[a] &&
                            in_.topology->excluded(in_.orig[a], ok);
      b.ia[np] = a;
      b.ib[np] = k;
      np += excluded ? 0 : 1;
    }
    b.count_ = np;
    if (np == 0) return;
    const std::size_t padded = ((np + W - 1) / W) * W;
    for (std::size_t i = np; i < padded; ++i) b.ia[i] = b.ib[i] = 0;

    // Recomputes each kept pair's displacement from the same inputs with the
    // same ops as the filter, so the values are the ones the filter tested.
    const V coulomb = V::broadcast(constants::kCoulomb);
    const std::size_t ntypes = in_.ntypes;
    for (std::size_t i = 0; i < padded; i += W) {
      alignas(64) std::int64_t ka[W];
      alignas(64) std::int64_t kb[W];
      alignas(64) std::int64_t km[W];
      for (int l = 0; l < W; ++l) {
        ka[l] = b.ia[i + l];
        kb[l] = b.ib[i + l];
        km[l] = static_cast<std::int64_t>(in_.type[ka[l]] * ntypes + in_.type[kb[l]]);
      }
      const V dx = image(V::gather(in_.x.data(), ka) - V::gather(in_.x.data(), kb), x_);
      const V dy = image(V::gather(in_.y.data(), ka) - V::gather(in_.y.data(), kb), y_);
      const V dz = image(V::gather(in_.z.data(), ka) - V::gather(in_.z.data(), kb), z_);
      dx.store(&b.dx[i]);
      dy.store(&b.dy[i]);
      dz.store(&b.dz[i]);
      norm2(dx, dy, dz).store(&b.r2[i]);
      ((coulomb * V::gather(in_.q.data(), ka)) * V::gather(in_.q.data(), kb)).store(&b.qq[i]);
      V::gather(in_.mix_c6.data(), km).store(&b.c6[i]);
      V::gather(in_.mix_c12.data(), km).store(&b.c12[i]);
      V::gather(in_.mix_shift.data(), km).store(&b.e_shift[i]);
    }
    b.finalize(W);
    eval_impl<W>(b, in_.kernel);

    // Serial scatter in enumeration order: +f on a, -f on b, each component
    // accumulated with one rounding (fma1 fuses exactly when the build's
    // vector backend does).
    for (std::size_t i = 0; i < np; ++i) {
      out_.energy_coulomb += b.e_coul[i];
      out_.energy_lj += b.e_lj[i];
      const double f = b.f_over_r[i];
      Vec3& fa = out_.forces[b.ia[i]];
      Vec3& fb = out_.forces[b.ib[i]];
      fa.x = simd::fma1(f, b.dx[i], fa.x);
      fa.y = simd::fma1(f, b.dy[i], fa.y);
      fa.z = simd::fma1(f, b.dz[i], fa.z);
      fb.x = simd::fma1(-f, b.dx[i], fb.x);
      fb.y = simd::fma1(-f, b.dy[i], fb.y);
      fb.z = simd::fma1(-f, b.dz[i], fb.z);
    }
    out_.pairs += np;
    b.clear();
  }

  const SweepInput& in_;
  PairBatch& batch_;
  SweepPartial& out_;
  const Axis x_, y_, z_;
  const V cutoff2_;
};

void evaluate_pair_batch(PairBatch& batch, const PairKernelConfig& config,
                         simd::Mode mode) {
  if (mode == simd::Mode::kNative) {
    eval_impl<simd::kNativeWidth>(batch, config);
  } else {
    eval_impl<1>(batch, config);
  }
}

void sweep_cells(const SweepInput& in, std::size_t c_begin, std::size_t c_end,
                 PairBatch& batch, SweepPartial& out, simd::Mode mode) {
  if (mode == simd::Mode::kNative) {
    CellSweep<simd::kNativeWidth>(in, batch, out).run(c_begin, c_end);
  } else {
    CellSweep<1>(in, batch, out).run(c_begin, c_end);
  }
}

}  // namespace tme
