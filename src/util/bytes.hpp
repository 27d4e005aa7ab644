// Endian-stable byte serialization used by all wire formats (fingerprint
// uploads, oracle table downloads, location responses) and on-disk blobs.
// All multi-byte integers are little-endian on the wire.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace vp {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  /// LEB128 unsigned varint: 7 bits per byte, low group first, high bit
  /// set on every byte but the last (1 byte below 128, at most 10).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed (u32) byte blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads primitives back out of a byte span; throws DecodeError on
/// truncation so malformed network input can never read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Inverse of ByteWriter::varint. Throws DecodeError on truncation and
  /// on a varint longer than 10 bytes or wider than 64 bits.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      // The 10th byte may carry bit 63 only, and no continuation.
      if (shift == 63 && b > 1) {
        throw DecodeError{"varint: longer than 10 bytes or 64 bits"};
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  /// Raw bytes of exact length.
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  /// Length-prefixed blob.
  std::span<const std::uint8_t> blob() {
    const std::uint32_t n = u32();
    return take(n);
  }

  std::string str() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw DecodeError{"buffer truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining())};
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
  T get_le() {
    const auto b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(b[i]) << (8 * i)));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace vp
