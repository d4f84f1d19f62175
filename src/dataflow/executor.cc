#include "dataflow/executor.h"

#include <algorithm>
#include <utility>

namespace cim::dataflow {

Expected<std::unique_ptr<DataflowExecutor>> DataflowExecutor::Create(
    const ExecutorParams& params, DataflowGraph graph, Placement placement,
    Rng rng) {
  if (Status s = graph.Validate(); !s.ok()) return s;
  if (Status s = params.mesh.Validate(); !s.ok()) return s;
  // Each node takes the next free micro-unit slot of its tile, so a tile
  // holds as many slots as the placement puts nodes on one tile.
  std::map<std::uint32_t, std::size_t> load;  // (y << 16 | x) -> nodes
  std::vector<std::size_t> slot_of;           // by graph.nodes() position
  for (const GraphNode& node : graph.nodes()) {
    auto tile = placement.TileOf(node.name);
    if (!tile.ok()) return tile.status();
    slot_of.push_back(load[(std::uint32_t{tile->y} << 16) | tile->x]++);
  }
  auto order = graph.TopologicalOrder();
  if (!order.ok()) return order.status();

  std::unique_ptr<DataflowExecutor> exec(new DataflowExecutor());
  DataflowExecutor* self = exec.get();
  auto grid = arch::TileGrid::Create(
      params.mesh,
      [self](const noc::Delivery& delivery) {
        // Packets carry the destination node's topological index; an index
        // past the graph means a corrupted or foreign packet.
        const std::size_t node = delivery.packet.stream_id;
        std::vector<double> payload;
        if (node >= self->nodes_.size() ||
            !arch::DeserializeVector(delivery.packet.inline_payload, &payload)
                 .ok()) {
          ++self->wave_errors_;
          return;
        }
        self->DeliverInput(node, payload);
      },
      {}, params.micro_unit,
      *std::max_element(slot_of.begin(), slot_of.end()) + 1);
  if (!grid.ok()) return grid.status();
  exec->grid_ = std::move(grid.value());

  exec->nodes_.resize(order->size());
  for (std::size_t i = 0; i < order->size(); ++i) {
    exec->index_of_.emplace((*order)[i], i);
  }
  for (const Edge& edge : graph.edges()) {
    const std::size_t to = exec->index_of_.at(edge.to);
    exec->nodes_[exec->index_of_.at(edge.from)].successors.push_back(to);
    ++exec->nodes_[to].in_degree;
  }
  // Program the nodes (and fork their MVM streams) in graph order.
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    const GraphNode& node = graph.nodes()[n];
    NodeState& state = exec->nodes_[exec->index_of_.at(node.name)];
    state.name = node.name;
    state.tile = placement.tiles.at(node.name);
    auto tile = exec->grid_->TileAt(state.tile);
    if (!tile.ok()) {
      return InvalidArgument("node '" + node.name + "' placed off the mesh");
    }
    state.unit = &(*tile)->micro_unit(slot_of[n]);
    if (Status s = state.unit->LoadProgram(node.program); !s.ok()) return s;
    if (node.mvm.has_value()) {
      if (Status s = state.unit->ConfigureMvm(
              node.mvm->engine, node.mvm->in_dim, node.mvm->out_dim,
              node.mvm->weights, rng.Fork());
          !s.ok()) {
        return s;
      }
    }
  }
  return exec;
}

Expected<std::map<std::string, std::vector<double>>>
DataflowExecutor::RunWave(
    const std::map<std::string, std::vector<double>>& source_inputs) {
  // Check every name before delivering any: a rejected wave must not fire
  // a micro-unit or leave packets queued for the next wave.
  for (const NodeState& node : nodes_) {
    if (node.in_degree == 0 && !source_inputs.contains(node.name)) {
      return InvalidArgument("missing input for source '" + node.name + "'");
    }
  }
  for (const auto& [name, payload] : source_inputs) {
    const auto it = index_of_.find(name);
    if (it == index_of_.end() || nodes_[it->second].in_degree != 0) {
      return InvalidArgument("'" + name + "' is not a source node");
    }
  }
  // Reset wave state.
  sink_outputs_.clear();
  for (NodeState& node : nodes_) {
    node.pending_inputs = node.in_degree;
    node.accumulator.clear();
    node.fired = false;
  }
  for (const auto& [name, payload] : source_inputs) {
    DeliverInput(index_of_.at(name), payload);
  }
  grid_->queue().Run();
  return sink_outputs_;
}

void DataflowExecutor::DeliverInput(std::size_t node,
                                    std::span<const double> payload) {
  NodeState& state = nodes_[node];
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

void DataflowExecutor::FireNode(std::size_t node) {
  NodeState& state = nodes_[node];
  const CostReport before = state.unit->lifetime_cost();
  // The node fires once per wave, so it runs its accumulator in place.
  std::vector<double>& output = state.accumulator;
  if (!state.unit->Execute(&output).ok()) {
    ++wave_errors_;
    return;
  }
  const CostReport delta = state.unit->lifetime_cost() - before;
  compute_cost_ += delta;

  if (state.successors.empty()) {
    sink_outputs_[state.name] = std::move(output);
    return;
  }
  // Emit to every successor after the node's processing latency.
  EventQueue& queue = grid_->queue();
  for (const std::size_t succ : state.successors) {
    noc::Packet packet;
    packet.id = next_packet_id_++;
    packet.stream_id = succ;
    packet.source = state.tile;
    packet.destination = nodes_[succ].tile;
    packet.kind = noc::PayloadKind::kData;
    arch::SerializeVector(output, &packet.inline_payload);
    packet.payload_bytes =
        static_cast<std::uint32_t>(packet.inline_payload.size());
    if (packet.source == packet.destination) {
      // Same tile: hand over directly after the processing delay.
      queue.ScheduleAfter(
          TimeNs(delta.latency_ns),
          [this, succ, payload = output] { DeliverInput(succ, payload); });
    } else {
      queue.ScheduleAfter(TimeNs(delta.latency_ns),
                          [this, packet = std::move(packet)]() mutable {
                            if (!grid_->noc().Inject(std::move(packet)).ok()) {
                              ++wave_errors_;
                            }
                          });
    }
  }
}

Status DataflowExecutor::FailNode(const std::string& name) {
  const auto it = index_of_.find(name);
  if (it == index_of_.end()) return NotFound("node");
  nodes_[it->second].unit->SetFailed(true);
  return Status::Ok();
}

}  // namespace cim::dataflow
