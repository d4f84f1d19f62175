// Seeded byte-level mutation for fuzzing the parsers a NoC packet reaches
// (arch::DeserializeProgram, arch::DeserializeVector, kCode payloads).
//
// g++ ships no libFuzzer, so the suites mutate valid encodings under fixed
// seeds instead: every run visits the same mutants, and any crash found
// reproduces from the seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace cim::fuzz {

// Applies one to three random mutations to `bytes`: bit flips, truncation,
// extension by random bytes, or a rewrite of the little-endian u32 count
// field that starts at `count_offset` (off by one, or any 32-bit value).
[[nodiscard]] inline std::vector<std::uint8_t> Mutate(
    std::vector<std::uint8_t> bytes, std::size_t count_offset, Rng& rng) {
  for (std::uint64_t round = 1 + rng.NextBounded(3); round > 0; --round) {
    switch (rng.NextBounded(4)) {
      case 0:  // bit flips
        if (bytes.empty()) break;
        for (std::uint64_t n = 1 + rng.NextBounded(4); n > 0; --n) {
          const std::uint64_t bit = rng.NextBounded(bytes.size() * 8);
          bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      case 1:  // truncation
        bytes.resize(rng.NextBounded(bytes.size() + 1));
        break;
      case 2:  // extension
        for (std::uint64_t n = 1 + rng.NextBounded(32); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng.NextU64()));
        }
        break;
      default: {  // count-field rewrite
        if (bytes.size() < count_offset + 4) break;
        std::uint32_t count = 0;
        for (int i = 0; i < 4; ++i) {
          count |= std::uint32_t{bytes[count_offset + i]} << (8 * i);
        }
        switch (rng.NextBounded(3)) {
          case 0: count += 1; break;
          case 1: count -= 1; break;
          default: count = static_cast<std::uint32_t>(rng.NextU64()); break;
        }
        for (int i = 0; i < 4; ++i) {
          bytes[count_offset + i] =
              static_cast<std::uint8_t>((count >> (8 * i)) & 0xFF);
        }
        break;
      }
    }
  }
  return bytes;
}

}  // namespace cim::fuzz
