#include "util/durable_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/crc32.hpp"
#include "util/io_shim.hpp"

namespace tme::io {

void durable_write(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  auto& shim = IoShim::instance();
  // Every failure leaves through here: the temp file is unlinked so a full
  // disk is not further polluted and the previous `path` stays the newest
  // readable state.
  auto fail = [&](int err, const std::string& what) {
    std::remove(tmp.c_str());
    throw WriteError(err, what + ": " + std::strerror(err));
  };

  const int fd = shim.open_for_write(tmp);
  if (fd < 0) fail(errno, "cannot open " + tmp + " for writing");
  auto fail_open = [&](int err, const std::string& what) {
    shim.close_fd(fd);
    fail(err, what);
  };

  // Write-all loop with EINTR retry.  A zero-progress write (possible under
  // an injected short-write plan colliding with an ENOSPC budget) is treated
  // as out-of-space rather than spinning forever.
  const char* data = bytes.data();
  std::size_t remaining = bytes.size();
  int zero_progress = 0;
  while (remaining > 0) {
    const ssize_t n = shim.write_some(fd, data, remaining, tmp);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_open(errno, "write to " + tmp + " failed");
    } else if (n == 0) {
      if (++zero_progress >= 8) {
        fail_open(ENOSPC, "write to " + tmp + " made no progress");
      }
    } else {
      zero_progress = 0;
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
  }

  // Durability, step 1: the temp file's bytes must be on the device before
  // the rename publishes them, or a crash can leave `path` pointing at a
  // hole.  A failed fsync leaves the page cache in an undefined state, so
  // the write is abandoned rather than renamed.
  while (shim.fsync_fd(fd, tmp) != 0) {
    if (errno == EINTR) continue;
    fail_open(errno, "fsync of " + tmp + " failed");
  }
  if (shim.close_fd(fd) != 0) fail(errno, "close of " + tmp + " failed");
  if (shim.rename_file(tmp, path) != 0) {
    fail(errno, "cannot rename " + tmp + " to " + path);
  }
  // Durability, step 2: the rename itself lives in the directory; fsync it
  // so the new name survives a power cut too.
  if (shim.fsync_parent_dir(path) != 0) {
    fail(errno, "fsync of parent directory of " + path + " failed");
  }
}

void write_sealed(const std::string& path, std::vector<std::uint8_t> body) {
  const std::uint32_t crc = crc32(body.data(), body.size());
  const auto* seal = reinterpret_cast<const std::uint8_t*>(&crc);
  body.insert(body.end(), seal, seal + sizeof(crc));
  durable_write(path, {reinterpret_cast<const char*>(body.data()), body.size()});
}

std::vector<std::uint8_t> read_sealed(const std::string& path,
                                      std::size_t min_body) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SealError(SealFault::kMissing, "cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::uint32_t stored_crc = 0;
  if (bytes.size() < min_body + sizeof(stored_crc)) {
    throw SealError(SealFault::kTruncated, "truncated file " + path);
  }
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  bytes.resize(bytes.size() - sizeof(stored_crc));
  if (crc32(bytes.data(), bytes.size()) != stored_crc) {
    throw SealError(SealFault::kCrcMismatch, "CRC mismatch in " + path);
  }
  return bytes;
}

}  // namespace tme::io
