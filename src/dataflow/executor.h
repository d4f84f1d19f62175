// DAG dataflow executor: runs waves of data through a placed graph, moving
// every edge payload over the mesh NoC and firing each node when all of its
// inputs have arrived (join nodes accumulate element-wise — the dataflow
// firing rule). This complements the Fabric's stream machinery, which
// handles linear static/dynamic/self-programmed streams; the executor
// handles general fan-in/fan-out graphs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/micro_unit.h"
#include "common/event_queue.h"
#include "dataflow/graph.h"
#include "dataflow/placer.h"
#include "noc/mesh.h"

namespace cim::dataflow {

struct ExecutorParams {
  noc::MeshParams mesh;
  arch::MicroUnitParams micro_unit;
};

class DataflowExecutor {
 public:
  // Places programs (and MVM weights) onto per-node micro-units.
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
    return noc_->telemetry();
  }
  [[nodiscard]] TimeNs now() const { return queue_.now(); }

  // Fault hook: fail the micro-unit of a node (its wave output is lost).
  Status FailNode(const std::string& name);

 private:
  DataflowExecutor(const ExecutorParams& params, DataflowGraph graph,
                   Placement placement);

  struct NodeState {
    std::unique_ptr<arch::MicroUnit> unit;
    noc::NodeId tile;
    // Topological position; packets carry it as their stream_id so the
    // delivery handler can name the destination node.
    std::size_t topo_index = 0;
    std::size_t pending_inputs = 0;   // remaining for the current wave
    std::vector<double> accumulator;  // element-wise summed inputs
    bool fired = false;
  };

  void DeliverInput(const std::string& node, std::span<const double> payload);
  void FireNode(const std::string& node);

  ExecutorParams params_;
  DataflowGraph graph_;
  Placement placement_;
  EventQueue queue_;
  std::unique_ptr<noc::MeshNoc> noc_;
  std::map<std::string, NodeState> states_;
  std::map<std::string, std::vector<double>> sink_outputs_;
  CostReport compute_cost_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t wave_errors_ = 0;

 public:
  [[nodiscard]] std::uint64_t wave_errors() const { return wave_errors_; }
};

}  // namespace cim::dataflow
