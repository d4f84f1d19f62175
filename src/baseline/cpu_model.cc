#include "baseline/cpu_model.h"

#include <algorithm>

namespace cim::baseline {

Expected<EngineCost> CpuModel::EstimateInference(
    const nn::Network& net) const {
  if (Status s = params_.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);
  if (!profiles.ok()) return profiles.status();

  // Batch-1: if the whole model fits in L3, weights stay resident after the
  // first pass; otherwise every inference streams them from DRAM (the Fig 2
  // bytes/flop wall).
  const double total_weight_bytes =
      static_cast<double>(net.TotalWeights()) * 4.0;  // fp32
  const bool weights_resident = total_weight_bytes <= params_.l3_bytes;

  EngineCost cost;
  const double effective_flops_per_ns =
      params_.peak_gflops * params_.compute_efficiency;  // flops per ns

  for (const nn::LayerProfile& p : *profiles) {
    const double flops = 2.0 * static_cast<double>(p.macs);
    const double weight_bytes = static_cast<double>(p.weight_count) * 4.0;
    const double activation_bytes =
        static_cast<double>(p.in_elements + p.out_elements) * 4.0;

    const double dram_bytes =
        (weights_resident ? 0.0 : weight_bytes) +
        // Activations of large layers spill past L2.
        (activation_bytes > params_.l2_bytes ? activation_bytes : 0.0);

    const double compute_ns =
        flops > 0.0 ? flops / effective_flops_per_ns : 0.0;
    const double memory_ns = dram_bytes / params_.dram_bandwidth_gbps;
    const double layer_ns =
        std::max(compute_ns, memory_ns) + params_.layer_overhead_ns;

    cost.latency_ns += layer_ns;
    cost.dram_bytes += dram_bytes;
    cost.macs += p.macs;
    cost.energy_pj += flops * params_.energy_per_flop_pj +
                      dram_bytes * params_.dram_energy_per_byte_pj;
    // Pool layers: comparator flops roughly equal to their output count.
    if (p.kind == nn::LayerKind::kPool) {
      cost.energy_pj += static_cast<double>(p.out_elements) *
                        params_.energy_per_flop_pj;
    }
  }
  // Busy-power floor over the whole inference (1 W*ns = 1e3 pJ).
  cost.energy_pj += params_.static_power_w * cost.latency_ns * 1e3;
  return cost;
}

}  // namespace cim::baseline
