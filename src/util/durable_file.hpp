// Durable file writes: the one commit rule every on-disk artifact follows.
//
// durable_write stages the bytes in "<path>.tmp" through the IO fault shim
// (util/io_shim.hpp): a write-all loop that retries EINTR and counts 8
// zero-progress writes as ENOSPC, then fsync, close, rename over <path>,
// and an fsync of the parent directory.  A reader therefore sees either the
// previous file or the complete new one, never a torn write, and after a
// power cut the new name is not lost.  Any failure unlinks the temp file
// and throws WriteError carrying the errno of the failing call.
//
// write_sealed / read_sealed add the CRC-32 seal the MD checkpoint and the
// fleet's context file use: the file is `body | u32 crc32(body)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tme::io {

class WriteError : public std::runtime_error {
 public:
  WriteError(int err, const std::string& what)
      : std::runtime_error(what), err_(err) {}
  // errno of the failing call (ENOSPC for a full or stalled device).
  int error_code() const { return err_; }

 private:
  int err_;
};

enum class SealFault {
  kMissing,      // cannot open for reading
  kTruncated,    // shorter than the seal plus the caller's minimum body
  kCrcMismatch,  // seal does not cover the bytes on disk
};

class SealError : public std::runtime_error {
 public:
  SealError(SealFault fault, const std::string& what)
      : std::runtime_error(what), fault_(fault) {}
  SealFault fault() const { return fault_; }

 private:
  SealFault fault_;
};

void durable_write(const std::string& path, std::string_view bytes);

// durable_write of `body` followed by its CRC-32.
void write_sealed(const std::string& path, std::vector<std::uint8_t> body);

// The body of a sealed file, after checking its CRC.  Files shorter than
// `min_body` bytes plus the seal are kTruncated.
std::vector<std::uint8_t> read_sealed(const std::string& path,
                                      std::size_t min_body);

}  // namespace tme::io
