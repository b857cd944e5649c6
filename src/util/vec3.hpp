// Minimal 3-component vector used throughout the library.
//
// Lengths are in nanometres, charges in units of the elementary charge, and
// energies in kJ/mol (see util/constants.hpp for the Coulomb prefactor).
#pragma once

#include <cmath>
#include <cstddef>
#include <ostream>

namespace tme {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr double& operator[](std::size_t i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr const double& operator[](std::size_t i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
  constexpr Vec3& operator/=(double s) { return *this *= (1.0 / s); }
};

constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
constexpr Vec3 operator*(Vec3 a, double s) { return a *= s; }
constexpr Vec3 operator*(double s, Vec3 a) { return a *= s; }
constexpr Vec3 operator/(Vec3 a, double s) { return a /= s; }
constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }

constexpr double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}
constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
constexpr double norm2(const Vec3& a) { return dot(a, a); }
inline double norm(const Vec3& a) { return std::sqrt(norm2(a)); }

// Component-wise product and quotient (used for box-normalised coordinates).
constexpr Vec3 hadamard(const Vec3& a, const Vec3& b) {
  return {a.x * b.x, a.y * b.y, a.z * b.z};
}
constexpr Vec3 hadamard_div(const Vec3& a, const Vec3& b) {
  return {a.x / b.x, a.y / b.y, a.z / b.z};
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

// Wrap `x` into [0, box) — periodic boundary for a single coordinate.  A
// coordinate already in range is returned as is, which is exactly what fmod
// gives for it, without the library call.
inline double wrap_coord(double x, double box) {
  if (x >= 0.0 && x < box) return x;
  x = std::fmod(x, box);
  return x < 0.0 ? x + box : x;
}

// Minimum-image displacement component for an orthorhombic box.
inline double min_image(double dx, double box) {
  return dx - box * std::nearbyint(dx / box);
}

// Orthorhombic periodic box.
struct Box {
  Vec3 lengths{1.0, 1.0, 1.0};

  constexpr double volume() const { return lengths.x * lengths.y * lengths.z; }

  Vec3 wrap(const Vec3& r) const {
    return {wrap_coord(r.x, lengths.x), wrap_coord(r.y, lengths.y),
            wrap_coord(r.z, lengths.z)};
  }

  // Minimum-image displacement a - b.
  Vec3 min_image_disp(const Vec3& a, const Vec3& b) const {
    return {min_image(a.x - b.x, lengths.x), min_image(a.y - b.y, lengths.y),
            min_image(a.z - b.z, lengths.z)};
  }
};

}  // namespace tme
