// Fabric-scale co-simulation: a partitioned network's tiles execute real
// DpeAccelerator work on host threads while their activations travel the
// mesh NoC as packets — per-hop contention, virtual-channel QoS and link
// failures shape the end-to-end latency/energy a fabric experiment reports.
// The event queue and the mesh belong to an arch::TileGrid, the substrate
// arch::Fabric and the dataflow executor also run on; here its tiles are
// bare mesh endpoints, and each packet's stream_id is its batch element.
//
// Epoch-barrier conservative scheme (the determinism contract of PRs 2–4,
// extended to a distributed simulation):
//   1. compute  — every tile with work this epoch runs its stage through
//                 the thread pool's ParallelFor (a one-task epoch runs on
//                 the calling thread). Tiles are the unit of parallelism;
//                 each tile appears at most once per epoch and its
//                 accelerator's own loops run inline, so no state is shared.
//   2. barrier  — on the calling thread, tile results are merged in
//                 canonical (stage, split) order, the virtual clock advances
//                 to epoch_start + max tile latency, and every inter-stage
//                 activation packet is injected in canonical
//                 (stage, src split, dst split) order at that instant.
//   3. exchange — the event queue drains; deliveries land in (time, seq)
//                 order fixed entirely by step 2.
// Steps 2–3 are serial and step 1 writes only per-task slots, so outputs,
// costs and NoC telemetry are bit-identical at any worker_threads — the
// bench_fabric_cosim bit-identity gate and fabric_cosim_test pin this.
//
// The batch pipelines through the stages as a wavefront: in epoch e, stage
// s works on batch element e − s, so up to stage_count elements are in
// flight and every tile is busy in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/fabric.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dpe/accelerator.h"
#include "dpe/params.h"
#include "fabric/partition.h"
#include "nn/network.h"
#include "noc/mesh.h"

namespace cim::fabric {

// The co-simulated mesh is noc::MeshParams defaults sized to the partition
// grid (partition.grid_width x partition.grid_height).
struct FabricParams {
  FabricPartitionParams partition;
  // Per-tile accelerator config. worker_threads is forced to 1: tiles are
  // the unit of host parallelism, and a serial accelerator per tile is what
  // keeps the epoch schedule deterministic.
  dpe::DpeParams dpe = dpe::DpeParams::Isaac();
  // Host threads co-simulating tiles (1 = serial, 0 = hardware concurrency).
  // Purely a simulation-speed knob; results are bit-identical at every
  // setting.
  std::size_t worker_threads = 0;
  // Root seed; tile accelerators derive their programming/noise streams
  // from (seed, tile index).
  std::uint64_t seed = 0x5EEDFAB;

  [[nodiscard]] Status Validate() const {
    if (worker_threads > kMaxWorkerThreads) {
      return InvalidArgument("worker_threads must be <= 256");
    }
    return partition.Validate();
  }
};

class FabricCoSim {
 public:
  [[nodiscard]] static Expected<std::unique_ptr<FabricCoSim>> Create(
      const FabricParams& params, const nn::Network& net);

  // The mesh's handlers and event queue hold this object's address.
  FabricCoSim(const FabricCoSim&) = delete;
  FabricCoSim& operator=(const FabricCoSim&) = delete;

  // Pipelined batch inference. Per element, InferResult::cost accumulates
  // every stage's compute cost plus the element's NoC transfer cost (also
  // broken out in InferResult::noc_cost); activations lost to link/node
  // failures zero-fill their slice and count in fault_report.degraded.
  // Bit-identical to the serial run at any worker_threads.
  [[nodiscard]] Expected<std::vector<dpe::InferResult>> InferBatch(
      std::span<const nn::Tensor> inputs);

  [[nodiscard]] const FabricPlan& plan() const { return plan_; }
  [[nodiscard]] const noc::MeshNoc& noc() const { return grid_->noc(); }
  [[nodiscard]] const noc::NocTelemetry& noc_telemetry() const {
    return grid_->noc().telemetry();
  }
  // Virtual time consumed so far (advances across batches).
  [[nodiscard]] TimeNs now() const { return grid_->queue().now(); }
  [[nodiscard]] std::uint64_t epochs_run() const { return epochs_run_; }

  // Fault hooks, applied between epochs (passthrough to the mesh).
  [[nodiscard]] Status SetLinkFailed(noc::NodeId from, noc::Direction dir,
                                     bool failed) {
    return grid_->noc().SetLinkFailed(from, dir, failed);
  }
  [[nodiscard]] Status SetNodeFailed(noc::NodeId node, bool failed) {
    return grid_->noc().SetNodeFailed(node, failed);
  }

 private:
  // Per-batch-element pipeline state. An element sits in exactly one stage
  // per epoch, so one input buffer and one running result suffice.
  struct ElementState {
    std::vector<double> next_input;  // assembled input for its next stage
    dpe::InferResult result;
    double transfer_ns_max = 0.0;  // worst packet of the current transition
    std::uint64_t packets_received = 0;
    std::uint64_t packets_dropped = 0;
  };

  FabricCoSim(const FabricParams& params, FabricPlan plan);

  // The grid's handlers: every delivery and every drop. A packet's
  // stream_id is its batch element.
  void OnDelivery(const noc::Delivery& delivery);
  void OnDrop(const noc::Packet& packet);

  FabricPlan plan_;
  // Owns the event queue and the mesh; its tiles are bare mesh endpoints.
  std::unique_ptr<arch::TileGrid> grid_;
  // One serial accelerator per plan tile, in plan_.tiles order.
  std::vector<std::unique_ptr<dpe::DpeAccelerator>> tiles_;
  ThreadPool pool_;
  std::vector<ElementState> elements_;
  std::uint64_t epochs_run_ = 0;
};

}  // namespace cim::fabric
