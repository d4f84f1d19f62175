#include "dpe/analytical.h"

#include <algorithm>
#include <variant>

namespace cim::dpe {
namespace {

std::size_t CeilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

Expected<std::vector<LayerMapping>> AnalyticalDpeModel::MapNetwork(
    const nn::Network& net) const {
  if (Status s = params_.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);  // validates the network
  if (!profiles.ok()) return profiles.status();

  const std::size_t rows = params_.array.rows;
  const std::size_t cols = params_.array.cols;
  const std::size_t arrays_per_engine = 2 * params_.slices();

  std::vector<LayerMapping> mappings;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const nn::Layer& layer = net.layers[i];
    const nn::LayerProfile& p = (*profiles)[i];
    LayerMapping m;
    m.kind = p.kind;
    m.mvm_invocations = p.mvm_calls;
    if (const auto* dense = std::get_if<nn::DenseLayer>(&layer)) {
      m.in_dim = dense->in_features;
      m.out_dim = dense->out_features;
      m.row_tiles = CeilDiv(m.in_dim, rows);
      m.col_tiles = CeilDiv(m.out_dim, cols);
      m.arrays = m.row_tiles * m.col_tiles * arrays_per_engine;
    } else if (const auto* conv = std::get_if<nn::Conv2dLayer>(&layer)) {
      m.in_dim = conv->in_channels * conv->kernel * conv->kernel;
      m.out_dim = conv->out_channels;
      m.row_tiles = CeilDiv(m.in_dim, rows);
      m.col_tiles = CeilDiv(m.out_dim, cols);
      m.arrays = m.row_tiles * m.col_tiles * arrays_per_engine *
                 params_.conv_replication;
    } else {
      // Pool: a digital comparator pass, one invocation per output pixel.
      m.in_dim = p.in_shape[0];
      m.out_dim = p.out_shape[0];
      m.mvm_invocations =
          static_cast<std::uint64_t>(p.out_shape[1]) * p.out_shape[2];
    }
    mappings.push_back(m);
  }
  return mappings;
}

Expected<InferenceEstimate> AnalyticalDpeModel::EstimateInference(
    const nn::Network& net) const {
  auto mappings = MapNetwork(net);
  if (!mappings.ok()) return mappings.status();

  const std::size_t rows = params_.array.rows;
  const std::size_t cols = params_.array.cols;

  InferenceEstimate est;
  est.macs = net.TotalMacs();

  // Pipeline model: fill = one invocation per layer; steady state is
  // bottlenecked by the layer with the most serialized invocations.
  double fill_latency = 0.0;
  double bottleneck_latency = 0.0;

  for (const LayerMapping& m : *mappings) {
    if (m.kind == nn::LayerKind::kPool) {
      // Digital comparator pass, pipelined with the conv layers.
      const double elements = static_cast<double>(m.mvm_invocations) *
                              static_cast<double>(m.out_dim);
      est.energy_pj += params_.ActivationEnergyPj(elements);
      est.buffer_bytes += elements;  // one byte per activation through eDRAM
      continue;
    }
    est.arrays_used += m.arrays;

    // Columns actually carrying weights in each array of this layer.
    const auto used_cols = static_cast<std::size_t>(
        static_cast<double>(m.out_dim) / static_cast<double>(m.col_tiles));

    // One MVM invocation: input_bits analog cycles across all the layer's
    // engines in parallel.
    const double inv_latency =
        params_.input_bits * params_.array.CycleLatencyNs(used_cols) +
        params_.activation_latency_ns;

    // Serialized invocations after replication.
    const std::size_t replication =
        m.kind == nn::LayerKind::kConv ? params_.conv_replication : 1;
    const std::uint64_t serialized = m.kind == nn::LayerKind::kConv
                                         ? params_.ConvWaves(m.mvm_invocations)
                                         : m.mvm_invocations;

    fill_latency += inv_latency;
    bottleneck_latency = std::max(
        bottleneck_latency, static_cast<double>(serialized) * inv_latency);

    // --- energy -----------------------------------------------------------
    // Analog cycles: per invocation, every array fires input_bits times.
    // Average active rows: full tiles drive all `rows`, the last row-tile
    // drives the remainder.
    const double avg_active_rows =
        static_cast<double>(m.in_dim) / static_cast<double>(m.row_tiles);
    const double arrays_per_invocation =
        static_cast<double>(m.arrays) / static_cast<double>(replication);
    const double analog_energy_per_inv =
        arrays_per_invocation * params_.input_bits *
        params_.CycleEnergyPj(static_cast<std::size_t>(avg_active_rows),
                              used_cols);
    // Digital merge: shift-and-add across slices, planes and row tiles.
    const double shift_add_per_inv =
        static_cast<double>(m.out_dim * m.row_tiles) * params_.input_bits *
        params_.shift_add_energy_pj;
    const double activation_per_inv =
        params_.ActivationEnergyPj(static_cast<double>(m.out_dim));
    // Buffer + H-tree traffic (8-bit activations).
    const double buffer_bytes_per_inv =
        static_cast<double>(m.in_dim) + static_cast<double>(m.out_dim);
    const double buffer_energy_per_inv =
        params_.BufferEnergyPj(buffer_bytes_per_inv) +
        static_cast<double>(m.out_dim) * params_.htree_energy_per_byte_pj;

    est.energy_pj += static_cast<double>(m.mvm_invocations) *
                     (analog_energy_per_inv + shift_add_per_inv +
                      activation_per_inv + buffer_energy_per_inv);
    est.buffer_bytes +=
        static_cast<double>(m.mvm_invocations) * buffer_bytes_per_inv;

    // Weight bytes touched in-array: every analog cycle reads the weights
    // stored on the active rows of the gated columns of every array.
    est.weight_bytes_touched +=
        static_cast<double>(m.mvm_invocations) * params_.input_bits *
        arrays_per_invocation * avg_active_rows *
        static_cast<double>(used_cols) * params_.array.cell.cell_bits / 8.0;

    // Programming (done once; arrays program row-serially, all arrays in
    // parallel). Average one program-verify iteration per row in the
    // analytical model.
    const double per_row_program =
        params_.array.cell.set_latency.ns + params_.array.cell.read_latency.ns;
    est.program_latency_ns =
        std::max(est.program_latency_ns,
                 static_cast<double>(rows) * per_row_program);
    est.program_energy_pj +=
        static_cast<double>(m.arrays * rows * cols) *
        (params_.array.cell.write_energy.pj + params_.array.cell.read_energy.pj);
  }

  est.latency_ns = fill_latency + bottleneck_latency;
  // Static power of resident arrays over the inference.
  est.energy_pj += params_.static_power_per_array_w *
                   static_cast<double>(est.arrays_used) * est.latency_ns *
                   1e3;  // W * ns = 1e-9 J = 1e3 pJ... (1 W*ns = 1e3 pJ)
  return est;
}

}  // namespace cim::dpe
