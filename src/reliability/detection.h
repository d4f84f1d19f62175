// Fault detection (§V.A): "detection can use extra bits on data or
// instruction states."
//
// Payload vectors get a checksum word appended at component boundaries;
// verification at the next boundary detects corruption (the model's ECC
// analogue). Detection is per-boundary, which is exactly the containment
// property §V.A wants: a fault is caught at the edge of the component that
// produced it and cannot silently propagate.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace cim::reliability {

// FNV-1a over the raw double bits; order-sensitive, deterministic.
[[nodiscard]] inline std::uint64_t PayloadChecksum(
    std::span<const double> payload) {
  std::uint64_t h = kFnvOffsetBasis;
  for (double v : payload) FnvMixU64(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

struct GuardedPayload {
  std::vector<double> values;
  std::uint64_t checksum = 0;

  [[nodiscard]] static GuardedPayload Seal(std::vector<double> payload) {
    GuardedPayload g;
    g.checksum = PayloadChecksum(payload);
    g.values = std::move(payload);
    return g;
  }

  [[nodiscard]] Status Verify() const {
    if (PayloadChecksum(values) != checksum) {
      return DataCorruption("payload checksum mismatch");
    }
    return Status::Ok();
  }
};

}  // namespace cim::reliability
