// Little-endian byte codec for every binary format the project defines: the
// serve protocol payloads, the supervisor task header, the CRC frame header
// (robust/framed_log.hpp), the study journal header and the cache spill file.
//
// Integers are fixed-width little-endian, a double travels as its IEEE-754
// bit pattern in a u64, and a string is a u32 length followed by its bytes.
// Writers append to a std::string; ByteReader is the bounds-checked inverse.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace hps {

inline void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// The u32 stored at `p`; the caller guarantees 4 readable bytes.
inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

/// The u64 stored at `p`; the caller guarantees 8 readable bytes.
inline std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Bounds-checked reader over one encoded payload, which must outlive it.
/// Every violation throws hps::Error whose message starts with the caller's
/// label: "<what> truncated", "<what> string too large" or
/// "<what> has trailing bytes".
class ByteReader {
 public:
  /// `max_str` caps every string length field before its bytes are read.
  ByteReader(std::string_view buf, const char* what,
             std::uint32_t max_str = std::numeric_limits<std::uint32_t>::max())
      : buf_(buf), what_(what), max_str_(max_str) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_u32(buf_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(buf_.data() + pos_);
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    HPS_REQUIRE(n <= max_str_, std::string(what_) + " string too large");
    need(n);
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Requires the whole payload to have been consumed.
  void done() const {
    HPS_REQUIRE(pos_ == buf_.size(), std::string(what_) + " has trailing bytes");
  }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    HPS_REQUIRE(n <= buf_.size() - pos_, std::string(what_) + " truncated");
  }

  std::string_view buf_;
  const char* what_;
  std::uint32_t max_str_;
  std::size_t pos_ = 0;
};

}  // namespace hps
