#include "noc/link_cipher.h"

#include "common/hash.h"

namespace cim::noc {

CostReport StreamCipher::Apply(std::span<std::uint8_t> data,
                               std::uint64_t nonce) const {
  Rng keystream(key_ ^ (nonce * 0x9e3779b97f4a7c15ULL));
  std::size_t i = 0;
  while (i < data.size()) {
    std::uint64_t word = keystream.NextU64();
    for (int b = 0; b < 8 && i < data.size(); ++b, ++i) {
      data[i] ^= static_cast<std::uint8_t>(word & 0xFF);
      word >>= 8;
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
