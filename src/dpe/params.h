// Dot Product Engine configuration (§VI).
//
// The DPE is HPE's follow-on to ISAAC: crossbar in-situ MACs, 1-bit input
// streaming DACs, shared SAR ADCs, eDRAM activation buffers, digital
// shift-and-add and activation units. Constants below are in the ISAAC
// operating envelope (ISCA'16) — the substitution for the unpublished DPE
// silicon numbers. The §VI claims are order-of-magnitude ratios, which these
// constants preserve.
#pragma once

#include "common/quantize.h"
#include "common/status.h"
#include "common/units.h"
#include "crossbar/mvm_engine.h"
#include "reliability/aging_monitor.h"

namespace cim::dpe {

// Fault tolerance for the behavioural accelerator (§V.A): detection at
// engine-tile boundaries, retry/remap/degrade recovery, and a proactive
// aging loop. Off by default — the fault-free fast path is byte-for-byte
// the pre-existing runtime. When enabled, every engine carries the ABFT
// guard column (§V.A "extra bits on data": one extra physical column holds
// scaled row sums, and every MVM checks the sensed guard output against
// the sum of the logical outputs), every tile's partial sums are
// checksummed across the tile -> merge transfer (catching transient
// in-flight corruption the in-array guard cannot), and a detected-bad tile
// MVM is re-executed once before the element degrades.
struct FaultToleranceParams {
  bool enabled = false;
  // Spare engine tiles pre-provisioned at Create; a detected-bad or retired
  // tile is reprogrammed onto one at the next wave boundary. 0 = recovery
  // degrades only (retry still runs).
  std::size_t spare_tiles = 0;
  reliability::AgingParams aging;

  [[nodiscard]] Status Validate() const {
    // Spares are pre-provisioned one monitored unit each at Create.
    if (spare_tiles > 4096) {
      return InvalidArgument("spare_tiles above 4096 are not modelled");
    }
    return aging.Validate();
  }
};

struct DpeParams {
  crossbar::CrossbarParams array;  // 128x128, 2-bit cells, 8-bit shared ADC
  int weight_bits = 8;
  int input_bits = 8;

  // eDRAM activation buffer.
  double buffer_energy_per_byte_pj = 0.5;

  // Digital periphery.
  double shift_add_energy_pj = 0.05;     // per output per cycle
  double activation_energy_pj = 0.2;     // per element (sigmoid/ReLU LUT)
  double activation_latency_ns = 0.5;    // per vector (pipelined)

  // On-chip H-tree interconnect between tiles.
  double htree_energy_per_byte_pj = 1.5;

  // Static (leakage + clocking) power per active array, watts.
  double static_power_per_array_w = 2.4e-4;

  // Convolution layers are replicated this many times so pixels process in
  // parallel (ISAAC's throughput-balancing replication; early conv layers
  // are tiny, so heavy replication is cheap in arrays).
  std::size_t conv_replication = 128;

  // Host-side concurrency of the behavioural accelerator: total number of
  // threads (including the calling thread) the inference runtime may use
  // for independent engine-tile MVMs and batch elements. 0 means "use the
  // host's hardware concurrency"; 1 gives a pool with no workers, so every
  // loop runs on the caller. Purely a simulation-speed knob — results are
  // bit-identical at every setting (see DESIGN.md § Threading and
  // determinism).
  std::size_t worker_threads = 0;

  // §V.A fault tolerance (disabled by default).
  FaultToleranceParams fault_tolerance;

  // Physical capacity used by the multi-board scaling model.
  std::size_t arrays_per_board = 8192;
  // Board-to-board interconnect.
  double board_link_bandwidth_gbps = 25.0;
  double board_link_latency_ns = 500.0;

  [[nodiscard]] static DpeParams Isaac() {
    DpeParams p;
    p.array.rows = 128;
    p.array.cols = 128;
    p.array.cell.cell_bits = 2;
    p.array.cell.read_latency = TimeNs(10.0);
    p.array.cell.set_latency = TimeNs(100.0);
    p.array.cell.reset_latency = TimeNs(1000.0);
    p.array.cell.read_energy = EnergyPj(0.01);  // low-voltage in-situ MAC
    p.array.cell.write_energy = EnergyPj(100.0);
    p.array.adc.bits = 8;
    p.array.dac.bits = 1;
    p.array.columns_per_adc = 128;
    return p;
  }

  // The MVM engine every tile of the behavioural accelerator runs.
  [[nodiscard]] crossbar::MvmEngineParams EngineParams() const {
    crossbar::MvmEngineParams engine;
    engine.array = array;
    engine.weight_bits = weight_bits;
    engine.input_bits = input_bits;
    engine.shift_add_energy = EnergyPj(shift_add_energy_pj);
    engine.guard_column = fault_tolerance.enabled;
    return engine;
  }

  [[nodiscard]] Status Validate() const {
    if (!AllFinite({buffer_energy_per_byte_pj, shift_add_energy_pj,
                    activation_energy_pj, activation_latency_ns,
                    htree_energy_per_byte_pj, static_power_per_array_w,
                    board_link_bandwidth_gbps, board_link_latency_ns})) {
      return InvalidArgument("DPE parameters must be finite");
    }
    if (arrays_per_board == 0) {
      return InvalidArgument("arrays_per_board == 0");
    }
    // Both divide: conv MVM waves are CeilDiv(pixels, conv_replication),
    // and a board crossing takes bytes / board_link_bandwidth_gbps ns.
    if (conv_replication == 0) {
      return InvalidArgument("conv_replication == 0");
    }
    if (board_link_bandwidth_gbps <= 0.0) {
      return InvalidArgument("board_link_bandwidth_gbps must be positive");
    }
    if (Status s = fault_tolerance.Validate(); !s.ok()) return s;
    if (fault_tolerance.enabled && array.cols < 2) {
      return InvalidArgument("the guard column needs a second array column");
    }
    // Accept only what the engines run (precision, 1-bit DACs, the array).
    return EngineParams().Validate();
  }

  [[nodiscard]] int slices() const {
    return SlicesNeeded(weight_bits, array.cell.cell_bits);
  }

  // Charges of the digital periphery, shared by the behavioural
  // accelerator and the analytical model: activation units per element and
  // the eDRAM buffer per byte.
  [[nodiscard]] double ActivationEnergyPj(double elements) const {
    return elements * activation_energy_pj;
  }
  [[nodiscard]] double BufferEnergyPj(double bytes) const {
    return bytes * buffer_energy_per_byte_pj;
  }
  // Serialized MVM waves of a conv layer: its pixels run conv_replication
  // at a time.
  [[nodiscard]] std::uint64_t ConvWaves(std::uint64_t pixels) const {
    return pixels / conv_replication +
           (pixels % conv_replication != 0 ? 1 : 0);
  }

  // Energy of one analog bit-cycle of one array with `active_rows` driven
  // and `used_cols` carrying programmed weights. Cell read energy is
  // conductance-proportional: the used region averages half of g_on for
  // random weights; the unused region sits at g_off (negligible).
  [[nodiscard]] double CycleEnergyPj(std::size_t active_rows,
                                     std::size_t used_cols = 0) const {
    if (used_cols == 0 || used_cols > array.cols) used_cols = array.cols;
    constexpr double kAvgConductanceFraction = 0.5;
    const double g_ratio =
        array.cell.g_off_siemens / array.cell.g_on_siemens;
    const double cell_energy =
        static_cast<double>(active_rows) * array.cell.read_energy.pj *
        (static_cast<double>(used_cols) * kAvgConductanceFraction +
         static_cast<double>(array.cols - used_cols) * g_ratio);
    const double adc_energy = static_cast<double>(used_cols) *
                              array.adc.conversion_energy().pj;
    const double dac_energy = static_cast<double>(active_rows) *
                              array.dac.drive_energy.pj;
    return cell_energy + adc_energy + dac_energy;
  }
};

}  // namespace cim::dpe
