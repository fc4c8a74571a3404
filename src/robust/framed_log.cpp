#include "robust/framed_log.hpp"

#include <array>

#include "common/bytes.hpp"

namespace hps::robust {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void append_frame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.append(payload);
}

FrameCheck check_frame(std::string_view buf, std::uint32_t min_len, std::uint32_t max_len) {
  FrameCheck fc;
  if (buf.size() < kFrameHeaderBytes) return fc;
  fc.len = get_u32(buf.data());
  if (fc.len < min_len || fc.len > max_len) {
    fc.status = FrameCheck::Status::kBadLength;
    return fc;
  }
  if (buf.size() < fc.size()) return fc;
  const std::string_view payload = buf.substr(kFrameHeaderBytes, fc.len);
  if (crc32(payload.data(), payload.size()) != get_u32(buf.data() + 4)) {
    fc.status = FrameCheck::Status::kBadCrc;
    return fc;
  }
  fc.status = FrameCheck::Status::kFrame;
  fc.payload = payload;
  return fc;
}

}  // namespace hps::robust
