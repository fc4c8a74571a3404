// The CRC frame: the one unit of framing shared by the supervisor/daemon IPC
// stream (ipc.hpp), the study journal (journal.hpp) and the cache spill file
// (serve/spill.hpp). The layout, little-endian, is
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// This module owns the CRC, the encoding of one frame and the check of one
// frame. What to do about a bad frame is each caller's damage policy; the
// format and all three policies are written down once, in
// docs/robustness.md ("CRC framing").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hps::robust {

/// CRC-32 (IEEE 802.3, reflected) of `data`.
std::uint32_t crc32(const void* data, std::size_t len);

inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Append one frame carrying `payload` to `out`.
void append_frame(std::string& out, std::string_view payload);

/// The verdict on the bytes at the front of a buffer.
struct FrameCheck {
  enum class Status {
    kFrame,       ///< a whole frame whose CRC matches
    kIncomplete,  ///< the header, or the payload it promises, is cut short
    kBadLength,   ///< the length field is out of range (never waited for)
    kBadCrc,      ///< a whole frame whose CRC does not match
  };
  Status status = Status::kIncomplete;
  std::uint32_t len = 0;     ///< the header's length field; 0 until 8 bytes are present
  std::string_view payload;  ///< the payload, when status is kFrame

  /// Bytes the frame occupies, header included.
  std::size_t size() const { return kFrameHeaderBytes + len; }
};

/// Check the frame at the front of `buf`. The length field is held to
/// [min_len, max_len] as soon as the header is present, before the payload is
/// waited for, so a corrupt length is never allocated or waited on.
FrameCheck check_frame(std::string_view buf, std::uint32_t min_len, std::uint32_t max_len);

}  // namespace hps::robust
