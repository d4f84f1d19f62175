// Layer probes for the traced run: each inner layer timed alone at the
// shapes and parameters the workloads use, so a per-layer number can be set
// against the end-to-end one it should move.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "noc/packet.h"

namespace perfbench {

// A workload's NoC traffic, replayed through a standalone MeshNoc. Owned
// bursts (fabric::FabricCoSim's pattern): each window goes in with one
// InjectBurst and is drained with EventQueue::Run. Otherwise (arch::Fabric's
// pattern): the clock runs to each window's release time, its packets go in
// with per-packet Inject and a DeliveryHandler per node, and the queue
// drains at the end.
struct NocPattern {
  struct Window {
    double at_ns = 0.0;
    std::vector<cim::noc::Packet> packets;
  };
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  bool owned_bursts = false;
  std::vector<Window> windows;
};

// Adds crossbar.cycle_ns_per_cell.*, crossbar.mvm_us.*,
// device.fill_ns_per_factor.fast_noise and noc.cipher_ns_per_byte (over
// `cipher_bytes`-byte buffers), plus noc.host_ns_per_packet when `noc` is
// given. Returns the noisy/quiet/fast-noise 128x128 MVM times in us, in that
// order, for the crossbar share estimate.
std::vector<double> AddLayerProbes(const NocPattern* noc,
                                   std::size_t cipher_bytes, MetricMap* out);

}  // namespace perfbench
