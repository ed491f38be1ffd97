// Bounds-checked little-endian byte serialization for the checkpoint
// subsystem (src/checkpoint/, docs/DESIGN.md §12).
//
// Checkpoint frames are read back from disk
// after crashes, so the reader side must treat its input as hostile:
// every get_* is bounds-checked and throws Error on underrun, and
// expect_end() rejects trailing bytes — a truncated or padded frame
// can never be half-parsed into simulator state. The writer is a
// plain append buffer; both sides fix the byte order so checkpoints
// move between hosts.
#pragma once

#include <cstring>
#include <string>

#include "support/common.h"

namespace rapwam {

/// FNV-1a over `n` bytes, chainable via `seed` for multi-part hashes.
/// Every absorption step is a bijection of the running state, so any
/// single-byte change to the input changes the final value — the
/// property the checkpoint fuzz suite (flip every byte) relies on.
inline u64 fnv1a(const void* data, std::size_t n,
                 u64 seed = 0xCBF29CE484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  u64 h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(u32 v) {
    for (int i = 0; i < 4; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
  }
  void put_u64(u64 v) {
    for (int i = 0; i < 8; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
  }
  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::size_t size() const { return buf_.size(); }
  const std::string& str() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Reader over a fixed byte range; throws Error("<what>: ...") the
/// moment a read would run past the end.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t n, std::string what = "checkpoint")
      : p_(static_cast<const unsigned char*>(data)), n_(n),
        what_(std::move(what)) {}
  explicit ByteReader(const std::string& bytes, std::string what = "checkpoint")
      : ByteReader(bytes.data(), bytes.size(), std::move(what)) {}

  u8 get_u8() {
    need(1);
    return p_[off_++];
  }
  u32 get_u32() {
    need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= u32(p_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
  }
  u64 get_u64() {
    need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= u64(p_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
  }
  void get_bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, p_ + off_, n);
    off_ += n;
  }

  std::size_t remaining() const { return n_ - off_; }
  std::size_t offset() const { return off_; }
  /// Rejects a frame that parsed clean but carries extra bytes — a
  /// version skew or corruption signal, never silently ignored.
  void expect_end() const {
    if (off_ != n_)
      fail(what_ + ": " + std::to_string(n_ - off_) +
           " trailing bytes after the last field");
  }

 private:
  void need(std::size_t n) const {
    if (n_ - off_ < n)
      fail(what_ + ": truncated (need " + std::to_string(n) + " bytes at offset " +
           std::to_string(off_) + ", have " + std::to_string(n_ - off_) + ")");
  }

  const unsigned char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  std::string what_;
};

}  // namespace rapwam
