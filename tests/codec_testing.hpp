// Shared helpers for the byte-format tests: hex dumps for golden-bytes checks
// and a deterministic mutation sweep for every decoder that reads a socket or
// a disk file. The sweep needs nothing beyond the standard library, so it runs
// under plain g++ in ctest; the seed and case count are fixed, so a failure
// names a reproducible mutation.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace hps::testing {

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

inline std::string from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out += static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1]));
  return out;
}

/// Calls fn(mutated, i) for every single-byte flip (b ^ 0xff) of `pristine`.
template <class Fn>
void for_each_byte_flip(const std::string& pristine, Fn&& fn) {
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    fn(mutated, i);
  }
}

inline constexpr std::uint64_t kMutationSeed = 0x5eedf00d;
inline constexpr int kRandomMutations = 256;

/// Calls fn(mutated, case_no) for a fixed set of mutations of `pristine`:
/// every single-byte flip, every truncation, a u32 overwritten at every
/// offset with each length a corrupt header could claim, and
/// kRandomMutations seeded multi-byte overwrites.
template <class Fn>
void for_each_mutation(const std::string& pristine, Fn&& fn) {
  std::size_t case_no = 0;
  for_each_byte_flip(pristine, [&](const std::string& m, std::size_t) { fn(m, case_no++); });
  for (std::size_t n = 0; n < pristine.size(); ++n) fn(pristine.substr(0, n), case_no++);
  const auto size = static_cast<std::uint32_t>(pristine.size());
  for (std::size_t at = 0; at + 4 <= pristine.size(); ++at) {
    for (const std::uint32_t v : {0u, 1u, size, size - static_cast<std::uint32_t>(at),
                                  0x7fffffffu, 0xffffffffu}) {
      std::string mutated = pristine;
      for (int k = 0; k < 4; ++k)
        mutated[at + static_cast<std::size_t>(k)] = static_cast<char>((v >> (8 * k)) & 0xff);
      fn(mutated, case_no++);
    }
  }
  if (pristine.empty()) return;
  // Raw engine output, not a distribution: the sequence is fixed by the
  // standard, so every standard library produces the same cases.
  std::mt19937_64 rng(kMutationSeed);
  for (int r = 0; r < kRandomMutations; ++r) {
    std::string mutated = pristine;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e)
      mutated[rng() % mutated.size()] = static_cast<char>(rng() & 0xff);
    fn(mutated, case_no++);
  }
}

/// The sweep's invariant for a throwing decoder: on every mutation of
/// `pristine`, decode(mutated) either returns or throws hps::Error. Any other
/// exception is a third outcome and fails the test with the case number.
template <class Decode>
void expect_decoded_or_rejected(const std::string& pristine, Decode&& decode) {
  std::size_t rejected = 0;
  for_each_mutation(pristine, [&](const std::string& mutated, std::size_t case_no) {
    try {
      decode(mutated);
    } catch (const hps::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << case_no << " threw a non-hps::Error: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "mutation " << case_no << " threw a non-exception";
    }
  });
  EXPECT_GT(rejected, 0u) << "the sweep never reached a rejection";
}

}  // namespace hps::testing
