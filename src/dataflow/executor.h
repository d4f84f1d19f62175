// DAG dataflow executor: runs waves of data through a placed graph, moving
// every edge payload over the mesh NoC and firing each node when all of its
// inputs have arrived (join nodes accumulate element-wise — the dataflow
// firing rule). It holds its own arch::TileGrid, the substrate arch::Fabric
// also runs on: the Fabric handles linear static/dynamic/self-programmed
// streams, the executor general fan-in/fan-out graphs, each graph node on
// one micro-unit slot of the tile the placement names.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/fabric.h"
#include "dataflow/graph.h"
#include "dataflow/placer.h"

namespace cim::dataflow {

struct ExecutorParams {
  noc::MeshParams mesh;
  arch::MicroUnitParams micro_unit;
};

class DataflowExecutor {
 public:
  // Places programs (and MVM weights) onto per-node micro-units: a tile
  // gets as many as the placement puts nodes on one tile.
  // InvalidArgument when a node is placed off the mesh.
  [[nodiscard]] static Expected<std::unique_ptr<DataflowExecutor>> Create(
      const ExecutorParams& params, DataflowGraph graph, Placement placement,
      Rng rng);

  // Run one wave: seed every source node with its input vector, then drive
  // the event queue until the wave drains. Returns sink outputs by name.
  // InvalidArgument, with nothing delivered, when a source has no input or
  // an input names anything but a source node.
  [[nodiscard]] Expected<std::map<std::string, std::vector<double>>> RunWave(
      const std::map<std::string, std::vector<double>>& source_inputs);

  [[nodiscard]] const CostReport& compute_cost() const {
    return compute_cost_;
  }
  [[nodiscard]] const noc::NocTelemetry& noc_telemetry() const {
    return grid_->noc().telemetry();
  }
  [[nodiscard]] TimeNs now() const { return grid_->queue().now(); }
  [[nodiscard]] std::uint64_t wave_errors() const { return wave_errors_; }

  // Fault hook: fail the micro-unit of a node (its wave output is lost).
  Status FailNode(const std::string& name);

 private:
  DataflowExecutor() = default;

  // One graph node, indexed by topological position; packets carry that
  // index as their stream_id so the delivery handler can name the
  // destination node.
  struct NodeState {
    std::string name;
    arch::MicroUnit* unit = nullptr;  // the node's slot on its tile
    noc::NodeId tile;
    std::size_t in_degree = 0;
    std::vector<std::size_t> successors;  // in edge-insertion order
    std::size_t pending_inputs = 0;   // remaining for the current wave
    std::vector<double> accumulator;  // element-wise summed inputs
    bool fired = false;
  };

  void DeliverInput(std::size_t node, std::span<const double> payload);
  void FireNode(std::size_t node);

  std::unique_ptr<arch::TileGrid> grid_;
  std::vector<NodeState> nodes_;
  std::map<std::string, std::size_t> index_of_;
  std::map<std::string, std::vector<double>> sink_outputs_;
  CostReport compute_cost_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t wave_errors_ = 0;
};

}  // namespace cim::dataflow
