// The one JSON string escaper, shared by every JSON writer: the obs ledgers
// (obs/jsonl.hpp), the virtual-time timeline (obs/timeline.cpp) and the
// telemetry exporters (telemetry/export.cpp).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace hps {

/// Append `s` to `out` as a quoted JSON string literal.
inline void put_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// `s` as a quoted JSON string literal, for stream writers.
inline std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  put_json_string(out, s);
  return out;
}

}  // namespace hps
