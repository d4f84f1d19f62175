// Common interface for the §VI comparison: the DPE and the von Neumann
// baselines all estimate the cost of one batch-1 network inference in the
// same currency (latency, energy, bytes moved across the memory interface).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "nn/network.h"

namespace cim::baseline {

struct EngineCost {
  double latency_ns = 0.0;
  double energy_pj = 0.0;
  double dram_bytes = 0.0;  // data crossing the off-chip memory interface
  std::uint64_t macs = 0;

  // Effective bandwidth at which the engine touched weights/activations.
  // bytes/ns = 1e9 bytes/s, so the ratio is already in gigaBYTES per second
  // (GB/s, not gigabits) — no scale factor needed. Pinned by
  // baseline_test.cc.
  [[nodiscard]] double weight_bandwidth_gbps() const {
    return latency_ns > 0.0 ? dram_bytes / latency_ns : 0.0;
  }
};

class ComputeEngine {
 public:
  virtual ~ComputeEngine() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Expected<EngineCost> EstimateInference(
      const nn::Network& net) const = 0;
};

}  // namespace cim::baseline
