// Shared JSON-lines codec helpers for the obs ledgers.
//
// Both ledgers — the virtual-time run ledger (ledger.hpp) and the wall-clock
// serve ledger (serve_ledger.hpp) — are flat JSON objects, one per line,
// whose values are numbers, strings, or bools. This header holds the writer
// primitives (deterministic field order, %.17g doubles) and the matching
// minimal scanner (accepts exactly flat objects plus unknown keys for
// forward compatibility; throws hps::Error with position context otherwise)
// so the two formats cannot drift apart in escaping or number handling.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace hps::obs::jsonl {

// %.17g round-trips doubles exactly and is locale-independent for the values
// we emit (the runner never produces inf/nan predictions).
inline void put_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

template <typename Int>
void field_int(std::string& out, const char* key, Int v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

inline void field_double(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  put_double(out, v);
}

inline void field_str(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":";
  put_json_string(out, v);
}

// --- minimal flat-object JSON scanner -------------------------------------

struct Scanner {
  std::string_view in;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("ledger: bad record at byte " + std::to_string(pos) + ": " + why);
  }
  void skip_ws() {
    while (pos < in.size() && std::isspace(static_cast<unsigned char>(in[pos]))) ++pos;
  }
  char peek() const { return pos < in.size() ? in[pos] : '\0'; }
  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < in.size() && in[pos] != '"') {
      char c = in[pos++];
      if (c == '\\') {
        if (pos >= in.size()) fail("truncated escape");
        const char e = in[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (pos + 4 > in.size()) fail("truncated \\u escape");
            const unsigned code =
                static_cast<unsigned>(std::strtoul(std::string(in.substr(pos, 4)).c_str(), nullptr, 16));
            pos += 4;
            // Ledger strings only ever escape control characters; reject the
            // rest rather than mis-decode multi-byte sequences.
            if (code > 0x7f) fail("unsupported \\u escape");
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos >= in.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }
  /// A scalar value as raw text: number, true/false, or a quoted string.
  /// Returns (text, was_string).
  std::pair<std::string, bool> parse_value() {
    skip_ws();
    if (peek() == '"') return {parse_string(), true};
    const std::size_t start = pos;
    while (pos < in.size() && in[pos] != ',' && in[pos] != '}' &&
           !std::isspace(static_cast<unsigned char>(in[pos])))
      ++pos;
    if (pos == start) fail("empty value");
    return {std::string(in.substr(start, pos - start)), false};
  }
};

struct Value {
  std::string text;
  bool is_string = false;
};

using FlatObject = std::unordered_map<std::string, Value>;

inline FlatObject parse_flat_object(const std::string& line) {
  Scanner sc{line};
  FlatObject obj;
  sc.expect('{');
  sc.skip_ws();
  if (sc.peek() == '}') {
    ++sc.pos;
    return obj;
  }
  while (true) {
    std::string key = sc.parse_string();
    sc.expect(':');
    auto [text, is_string] = sc.parse_value();
    obj[std::move(key)] = {std::move(text), is_string};
    sc.skip_ws();
    if (sc.peek() == ',') {
      ++sc.pos;
      continue;
    }
    sc.expect('}');
    break;
  }
  return obj;
}

inline const Value& require(const FlatObject& obj, const char* key) {
  const auto it = obj.find(key);
  if (it == obj.end()) throw Error(std::string("ledger: missing field \"") + key + "\"");
  return it->second;
}

inline std::int64_t get_i64(const FlatObject& obj, const char* key) {
  return std::strtoll(require(obj, key).text.c_str(), nullptr, 10);
}
inline std::uint64_t get_u64(const FlatObject& obj, const char* key) {
  return std::strtoull(require(obj, key).text.c_str(), nullptr, 10);
}
inline double get_f64(const FlatObject& obj, const char* key) {
  return std::strtod(require(obj, key).text.c_str(), nullptr);
}
inline std::string get_str(const FlatObject& obj, const char* key) {
  const Value& v = require(obj, key);
  if (!v.is_string) throw Error(std::string("ledger: field \"") + key + "\" is not a string");
  return v.text;
}
inline bool get_bool(const FlatObject& obj, const char* key) {
  const std::string& t = require(obj, key).text;
  if (t == "true") return true;
  if (t == "false") return false;
  throw Error(std::string("ledger: field \"") + key + "\" is not a bool");
}

}  // namespace hps::obs::jsonl
