// Bitwise fingerprints of solver results, pinned per kernel instantiation.
//
// result_hash is FNV-1a over the bytes of a result's forces and the given
// energies, so a pinned value catches any change in summation order.
// Back-interpolation's native gather reassociates its sums (the documented
// relaxation of the SIMD parity contract, util/simd.hpp), so scalar and
// native mode have their own bits; values are pinned for FMA builds at 1
// lane (scalar) and 8 lanes (AVX-512).  They hold for the default Release
// build only: C++ code is compiled with the compiler's default
// floating-point contraction, so another optimisation level or sanitizer
// instrumentation fuses the top-level SPME solve differently and moves its
// bits.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>

#include "ewald/reference_ewald.hpp"
#include "obs/manifest.hpp"
#include "util/simd.hpp"

namespace tme_test {

inline std::uint64_t result_hash(const tme::CoulombResult& r,
                                 std::initializer_list<double> energies) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  for (const tme::Vec3& f : r.forces) {
    mix(f.x);
    mix(f.y);
    mix(f.z);
  }
  for (const double e : energies) mix(e);
  return h;
}

struct PinnedHash {
  std::uint64_t scalar, native8;
};

// The pinned value for this build and TME_SIMD mode, if there is one.
inline std::optional<std::uint64_t> pinned_for_this_build(const PinnedHash& p) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return std::nullopt;
#endif
  if (!tme::simd::kFmaFused ||
      tme::obs::manifest_json().at("build_type").as_string() != "Release") {
    return std::nullopt;
  }
  switch (tme::simd::lanes(tme::simd::mode_from_env())) {
    case 1:
      return p.scalar;
    case 8:
      return p.native8;
    default:
      return std::nullopt;
  }
}

}  // namespace tme_test
