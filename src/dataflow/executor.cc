#include "dataflow/executor.h"

#include <utility>

namespace cim::dataflow {

Expected<std::unique_ptr<DataflowExecutor>> DataflowExecutor::Create(
    const ExecutorParams& params, DataflowGraph graph, Placement placement,
    Rng rng) {
  if (Status s = graph.Validate(); !s.ok()) return s;
  if (Status s = params.mesh.Validate(); !s.ok()) return s;
  for (const GraphNode& node : graph.nodes()) {
    if (!placement.tiles.contains(node.name)) {
      return NotFound("node '" + node.name + "' missing from placement");
    }
  }
  std::unique_ptr<DataflowExecutor> exec(
      new DataflowExecutor(params, std::move(graph), std::move(placement)));
  auto noc = noc::MeshNoc::Create(params.mesh, &exec->queue_);
  if (!noc.ok()) return noc.status();
  exec->noc_ = std::make_unique<noc::MeshNoc>(std::move(noc.value()));

  for (const GraphNode& node : exec->graph_.nodes()) {
    NodeState state;
    auto unit = arch::MicroUnit::Create(params.micro_unit);
    if (!unit.ok()) return unit.status();
    state.unit = std::make_unique<arch::MicroUnit>(std::move(unit.value()));
    if (Status s = state.unit->LoadProgram(node.program); !s.ok()) return s;
    if (node.mvm.has_value()) {
      if (Status s = state.unit->ConfigureMvm(
              node.mvm->engine, node.mvm->in_dim, node.mvm->out_dim,
              node.mvm->weights, rng.Fork());
          !s.ok()) {
        return s;
      }
    }
    state.tile = exec->placement_.tiles.at(node.name);
    exec->states_.emplace(node.name, std::move(state));
  }

  // Wire a delivery handler per tile: the packet's stream_id indexes the
  // destination node by topological position.
  auto order = exec->graph_.TopologicalOrder();
  if (!order.ok()) return order.status();
  DataflowExecutor* self = exec.get();
  const std::vector<std::string> node_order = *order;
  for (std::size_t i = 0; i < node_order.size(); ++i) {
    exec->states_.at(node_order[i]).topo_index = i;
  }
  for (std::uint16_t y = 0; y < params.mesh.height; ++y) {
    for (std::uint16_t x = 0; x < params.mesh.width; ++x) {
      exec->noc_->SetDeliveryHandler(
          {x, y}, [self, node_order](const noc::Delivery& delivery) {
            const std::size_t node_index = delivery.packet.stream_id;
            if (node_index >= node_order.size()) {
              // Packets carry the destination node's topological index; an
              // index past the graph means a corrupted or foreign packet.
              ++self->wave_errors_;
              return;
            }
            auto payload =
                arch::DeserializeVector(delivery.packet.inline_payload);
            if (!payload.ok()) {
              ++self->wave_errors_;
              return;
            }
            self->DeliverInput(node_order[node_index], *payload);
          });
    }
  }
  return exec;
}

DataflowExecutor::DataflowExecutor(const ExecutorParams& params,
                                   DataflowGraph graph, Placement placement)
    : params_(params),
      graph_(std::move(graph)),
      placement_(std::move(placement)) {}

Expected<std::map<std::string, std::vector<double>>>
DataflowExecutor::RunWave(
    const std::map<std::string, std::vector<double>>& source_inputs) {
  // Check every name before delivering any: a rejected wave must not fire
  // a micro-unit or leave packets queued for the next wave.
  for (const std::string& source : graph_.Sources()) {
    if (!source_inputs.contains(source)) {
      return InvalidArgument("missing input for source '" + source + "'");
    }
  }
  for (const auto& [name, payload] : source_inputs) {
    if (graph_.FindNode(name) == nullptr) {
      return InvalidArgument("'" + name + "' is not a graph node");
    }
    if (graph_.InDegree(name) != 0) {
      return InvalidArgument("'" + name + "' is not a source node");
    }
  }
  // Reset wave state.
  sink_outputs_.clear();
  for (auto& [name, state] : states_) {
    state.pending_inputs = graph_.InDegree(name);
    state.accumulator.clear();
    state.fired = false;
  }
  for (const auto& [name, payload] : source_inputs) {
    DeliverInput(name, payload);
  }
  queue_.Run();
  return sink_outputs_;
}

void DataflowExecutor::DeliverInput(const std::string& node,
                                    std::span<const double> payload) {
  auto it = states_.find(node);
  if (it == states_.end()) return;
  NodeState& state = it->second;
  // Join rule: element-wise accumulate all incoming payloads.
  if (state.accumulator.empty()) {
    state.accumulator.assign(payload.begin(), payload.end());
  } else if (state.accumulator.size() == payload.size()) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      state.accumulator[i] += payload[i];
    }
  } else {
    ++wave_errors_;
    return;
  }
  if (state.pending_inputs > 0) --state.pending_inputs;
  if (state.pending_inputs == 0 && !state.fired) {
    state.fired = true;
    FireNode(node);
  }
}

void DataflowExecutor::FireNode(const std::string& node) {
  NodeState& state = states_.at(node);
  const CostReport before = state.unit->lifetime_cost();
  auto output = state.unit->Execute(state.accumulator);
  if (!output.ok()) {
    ++wave_errors_;
    return;
  }
  const CostReport delta = state.unit->lifetime_cost() - before;
  compute_cost_ += delta;

  const std::vector<std::string> successors = graph_.Successors(node);
  if (successors.empty()) {
    sink_outputs_[node] = std::move(output.value());
    return;
  }
  // Emit to every successor after the node's processing latency.
  for (const std::string& succ : successors) {
    noc::Packet packet;
    packet.id = next_packet_id_++;
    packet.stream_id = states_.at(succ).topo_index;
    packet.source = state.tile;
    packet.destination = placement_.tiles.at(succ);
    packet.kind = noc::PayloadKind::kData;
    packet.inline_payload = arch::SerializeVector(*output);
    packet.payload_bytes =
        static_cast<std::uint32_t>(packet.inline_payload.size());
    if (packet.source == packet.destination) {
      // Same tile: hand over directly after the processing delay.
      queue_.ScheduleAfter(
          TimeNs(delta.latency_ns),
          [this, succ, payload = *output] { DeliverInput(succ, payload); });
    } else {
      queue_.ScheduleAfter(TimeNs(delta.latency_ns),
                           [this, packet = std::move(packet)]() mutable {
                             if (!noc_->Inject(std::move(packet)).ok()) {
                               ++wave_errors_;
                             }
                           });
    }
  }
}

Status DataflowExecutor::FailNode(const std::string& name) {
  auto it = states_.find(name);
  if (it == states_.end()) return NotFound("node");
  it->second.unit->SetFailed(true);
  return Status::Ok();
}

}  // namespace cim::dataflow
