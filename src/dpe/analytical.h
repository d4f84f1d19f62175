// Analytical DPE performance/energy model.
//
// Mirrors the behavioural accelerator's cost accounting in closed form so
// that large networks (the §VI sweep) can be evaluated without simulating
// millions of analog cell reads. The behavioural accelerator validates this
// model on small networks (tests/dpe_test.cc) — the standard calibration
// discipline for architecture simulators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dpe/params.h"
#include "nn/network.h"

namespace cim::dpe {

// Cost of one batch-1 inference, plus the standing resources it needs.
struct InferenceEstimate {
  double latency_ns = 0.0;
  double energy_pj = 0.0;
  std::uint64_t macs = 0;
  std::size_t arrays_used = 0;       // crossbar arrays resident
  double weight_bytes_touched = 0.0; // per inference (in-array accesses)
  double buffer_bytes = 0.0;         // activations through eDRAM
  // Programming (weight load) cost — the slow asymmetric-write path.
  double program_latency_ns = 0.0;
  double program_energy_pj = 0.0;

  [[nodiscard]] double effective_weight_bandwidth_gbps() const {
    return latency_ns > 0.0 ? weight_bytes_touched / latency_ns : 0.0;
  }
};

// Per-layer mapping decisions, exposed for DESIGN.md-style introspection
// and the scaling model.
struct LayerMapping {
  nn::LayerKind kind = nn::LayerKind::kDense;
  std::size_t in_dim = 0;  // MVM rows (ic*k*k for conv)
  std::size_t out_dim = 0; // MVM cols
  std::size_t row_tiles = 0;
  std::size_t col_tiles = 0;
  std::size_t arrays = 0;  // row_tiles * col_tiles * 2 * slices
  std::uint64_t mvm_invocations = 0;  // 1 for dense, oh*ow for conv
};

class AnalyticalDpeModel {
 public:
  explicit AnalyticalDpeModel(DpeParams params = DpeParams::Isaac())
      : params_(std::move(params)) {}

  [[nodiscard]] const DpeParams& params() const { return params_; }

  [[nodiscard]] Expected<std::vector<LayerMapping>> MapNetwork(
      const nn::Network& net) const;

  // Batch-1 inference estimate with all weights resident (the CIM premise:
  // weights never move after programming).
  [[nodiscard]] Expected<InferenceEstimate> EstimateInference(
      const nn::Network& net) const;

 private:
  DpeParams params_;
};

}  // namespace cim::dpe
