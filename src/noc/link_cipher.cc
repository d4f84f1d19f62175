#include "noc/link_cipher.h"

#include <bit>
#include <cstring>

#include "common/hash.h"

namespace cim::noc {

CostReport StreamCipher::Apply(std::span<std::uint8_t> data,
                               std::uint64_t nonce) const {
  // Keystream byte i is byte (i mod 8) of word i / 8, least significant
  // first: a little-endian load lines eight data bytes up with one word.
  static_assert(std::endian::native == std::endian::little,
                "the word-wise XOR assumes a little-endian host");
  Rng keystream(key_ ^ (nonce * 0x9e3779b97f4a7c15ULL));
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left >= 8; left -= 8, p += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= keystream.NextU64();
    std::memcpy(p, &chunk, 8);
  }
  if (left > 0) {
    std::uint64_t word = keystream.NextU64();
    for (std::size_t b = 0; b < left; ++b, word >>= 8) {
      p[b] ^= static_cast<std::uint8_t>(word & 0xFF);
    }
  }
  CostReport cost;
  cost.latency_ns = costs_.fixed_latency.ns +
                    costs_.latency_per_byte.ns *
                        static_cast<double>(data.size());
  cost.energy_pj =
      costs_.energy_per_byte.pj * static_cast<double>(data.size());
  cost.operations = data.size();
  return cost;
}

std::uint32_t StreamCipher::Tag(std::span<const std::uint8_t> data,
                                std::uint64_t nonce) const {
  // Keyed FNV-1a over (key, nonce, data), folded to 32 bits.
  std::uint64_t h = kFnvOffsetBasis ^ key_;
  FnvMixU64(h, nonce);
  for (std::uint8_t byte : data) FnvMixByte(h, byte);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace cim::noc
