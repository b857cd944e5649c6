// Byte-level serialisation: the one codec for transport payloads, worker
// telemetry, the fleet's context file and the MD checkpoint.
//
// Little-endian, fixed-width writes of plain scalars and double arrays.
// doubles()/vec3s() carry a u64 element count; raw()/f64() write bare
// bytes, for formats whose array lengths come from a header field.  The
// Reader throws wire::Error on any overrun, so a truncated or malformed
// payload is rejected loudly instead of read as garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/vec3.hpp"

namespace tme::wire {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void raw(const void* data, std::size_t len) {
    if (len == 0) return;  // data may be null (an empty vector)
    const std::size_t old = bytes_.size();
    bytes_.resize(old + len);
    std::memcpy(bytes_.data() + old, data, len);
  }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void vec3s(const std::vector<Vec3>& v) {
    u64(v.size());
    for (const Vec3& e : v) {
      f64(e.x);
      f64(e.y);
      f64(e.z);
    }
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  void raw(void* out, std::size_t len) {
    if (len > len_ - pos_) throw Error("wire: truncated payload");
    if (len == 0) return;  // out may be null (an empty vector)
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  std::uint16_t u16() { return value<std::uint16_t>(); }
  std::uint32_t u32() { return value<std::uint32_t>(); }
  std::uint64_t u64() { return value<std::uint64_t>(); }
  std::int64_t i64() { return value<std::int64_t>(); }
  double f64() { return value<double>(); }
  // Element-count sanity bound: a corrupted length must fail here, not in a
  // multi-gigabyte resize.
  std::size_t count(std::uint64_t max_elems) {
    const std::uint64_t n = u64();
    if (n > max_elems) throw Error("wire: element count out of range");
    return static_cast<std::size_t>(n);
  }
  std::vector<double> doubles() {
    const std::size_t n = count(remaining() / sizeof(double) + 1);
    if (n * sizeof(double) > remaining()) throw Error("wire: truncated payload");
    std::vector<double> v(n);
    raw(v.data(), n * sizeof(double));
    return v;
  }
  std::vector<Vec3> vec3s() {
    const std::size_t n = count(remaining() / (3 * sizeof(double)) + 1);
    std::vector<Vec3> v(n);
    for (Vec3& e : v) {
      e.x = f64();
      e.y = f64();
      e.z = f64();
    }
    return v;
  }
  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  template <typename T>
  T value() {
    T v;
    raw(&v, sizeof(T));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace tme::wire
