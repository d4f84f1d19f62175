// FNV-1a, the simulator's one non-cryptographic hash: the NoC link
// cipher's authentication tag, the reliability payload checksum and the
// fault log's fingerprint all fold their bytes through it.
#pragma once

#include <cstdint>

namespace cim {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

// Fold one byte into `h`.
constexpr void FnvMixByte(std::uint64_t& h, std::uint8_t byte) {
  h ^= byte;
  h *= 0x100000001b3ULL;
}

// Fold the eight bytes of `v` into `h`, least significant first.
constexpr void FnvMixU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    FnvMixByte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace cim
