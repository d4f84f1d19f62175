#include "noc/mesh.h"

#include <algorithm>
#include <utility>

#include "common/contracts.h"

namespace cim::noc {

Expected<MeshNoc> MeshNoc::Create(const MeshParams& params,
                                  EventQueue* queue) {
  if (queue == nullptr) return InvalidArgument("event queue required");
  if (Status s = params.Validate(); !s.ok()) return s;
  return MeshNoc(params, queue);
}

MeshNoc::MeshNoc(const MeshParams& params, EventQueue* queue)
    : params_(params), queue_(queue) {
  const std::size_t node_count =
      static_cast<std::size_t>(params.width) * params.height;
  nodes_.resize(node_count);
  links_.resize(node_count * kDirectionCount);
}

NodeId MeshNoc::Neighbor(NodeId n, Direction dir) {
  switch (dir) {
    case Direction::kEast: return {static_cast<std::uint16_t>(n.x + 1), n.y};
    case Direction::kWest: return {static_cast<std::uint16_t>(n.x - 1), n.y};
    case Direction::kNorth: return {n.x, static_cast<std::uint16_t>(n.y + 1)};
    case Direction::kSouth: return {n.x, static_cast<std::uint16_t>(n.y - 1)};
  }
  return n;
}

void MeshNoc::SetDeliveryHandler(NodeId node, DeliveryHandler handler) {
  // Wiring a handler to a node outside the mesh was silently ignored, which
  // turned topology bugs into "handler never fires" mysteries.
  CIM_CHECK(InBounds(node));
  nodes_[NodeIndex(node)].handler = std::move(handler);
}

Status MeshNoc::AdmitPacket(Packet& packet) {
  if (!InBounds(packet.source) || !InBounds(packet.destination)) {
    return InvalidArgument("packet endpoints outside mesh");
  }
  // When no fault is armed (any_failure_ false) the node checks are
  // vacuously clear and NextHop cannot fail, so healthy meshes skip all
  // three probes.
  if (any_failure_ && nodes_[NodeIndex(packet.source)].failed) {
    // Never entered the network: not counted as injected.
    return Unavailable("source node failed");
  }
  packet.injected_at = queue_->now();
  ++telemetry_.injected;
  // Source-detectable faults drop here, counted, so conservation
  // (injected == delivered + dropped) holds without waiting for the event.
  if (any_failure_) {
    if (nodes_[NodeIndex(packet.destination)].failed) {
      Drop(packet, DropReason::kNodeFailed);
      return Unavailable("destination node failed");
    }
    if (!(packet.source == packet.destination)) {
      bool rerouted = false;
      if (!NextHop(packet.source, packet.destination, &rerouted).ok()) {
        Drop(packet, DropReason::kUnroutable);
        return FailedPrecondition("no usable link out of source");
      }
    }
  }
  return Status::Ok();
}

Status MeshNoc::Inject(Packet packet) {
  if (Status s = AdmitPacket(packet); !s.ok()) return s;
  const NodeId source = packet.source;
  const std::uint32_t idx = AllocFlight(std::move(packet), source, 0);
  queue_->ScheduleTagAfter(TimeNs(0.0), this, idx);
  return Status::Ok();
}

Status MeshNoc::InjectBurst(std::vector<Packet>&& packets) {
  Status first = Status::Ok();
  // Per-packet admission, as in Inject; the admitted packets are compacted
  // to the front of the caller's buffer, which one tagged event then
  // replays in injection order.
  auto kept = packets.begin();
  for (Packet& packet : packets) {
    if (Status s = AdmitPacket(packet); !s.ok()) {
      if (first.ok()) first = std::move(s);
      continue;
    }
    if (&*kept != &packet) *kept = std::move(packet);
    ++kept;
  }
  if (kept != packets.begin()) {
    packets.erase(kept, packets.end());
    bursts_.push_back(std::move(packets));
    queue_->ScheduleTagAfter(TimeNs(0.0), this, kTagBurstBit);
  }
  return first;
}

Status MeshNoc::SetNodeFailed(NodeId node, bool failed) {
  if (!InBounds(node)) return OutOfRange("node outside mesh");
  nodes_[NodeIndex(node)].failed = failed;
  RecomputeAnyFailure();
  return Status::Ok();
}

Status MeshNoc::SetLinkFailed(NodeId from, Direction dir, bool failed) {
  if (!InBounds(from) || !InBounds(Neighbor(from, dir))) {
    return OutOfRange("link outside mesh");
  }
  links_[LinkIndex(from, dir)].failed = failed;
  RecomputeAnyFailure();
  return Status::Ok();
}

void MeshNoc::RecomputeAnyFailure() {
  any_failure_ = false;
  for (const Node& node : nodes_) any_failure_ = any_failure_ || node.failed;
  for (const Link& link : links_) any_failure_ = any_failure_ || link.failed;
}

const RunningStat* MeshNoc::StreamLatency(std::uint64_t stream) const {
  const auto it = std::lower_bound(
      stream_latency_.begin(), stream_latency_.end(), stream,
      [](const auto& entry, std::uint64_t id) { return entry.first < id; });
  if (it == stream_latency_.end() || it->first != stream) return nullptr;
  return &it->second;
}

RunningStat& MeshNoc::StreamSlot(std::uint64_t stream) {
  auto it = std::lower_bound(
      stream_latency_.begin(), stream_latency_.end(), stream,
      [](const auto& entry, std::uint64_t id) { return entry.first < id; });
  if (it == stream_latency_.end() || it->first != stream) {
    it = stream_latency_.insert(it, {stream, RunningStat{}});
  }
  return it->second;
}

Expected<Direction> MeshNoc::NextHop(NodeId at, NodeId dst,
                                     bool* rerouted) const {
  *rerouted = false;
  // Dimension-order preference: X first, then Y.
  Direction preferred;
  if (dst.x != at.x) {
    preferred = dst.x > at.x ? Direction::kEast : Direction::kWest;
  } else {
    preferred = dst.y > at.y ? Direction::kNorth : Direction::kSouth;
  }
  const auto usable = [&](Direction dir) {
    const NodeId next = Neighbor(at, dir);
    if (!InBounds(next) || links_[LinkIndex(at, dir)].failed) return false;
    // Avoid routing *through* a dead node; stepping onto a dead final
    // destination is allowed (the drop is charged to the destination).
    if (!(next == dst) && nodes_[NodeIndex(next)].failed) return false;
    return true;
  };
  if (usable(preferred)) return preferred;

  // Single-turn failover: detour along the perpendicular dimension,
  // preferring the direction that makes progress toward the destination.
  std::array<Direction, 3> fallbacks{};
  std::size_t n = 0;
  if (dst.x != at.x) {
    fallbacks[n++] = dst.y >= at.y ? Direction::kNorth : Direction::kSouth;
    fallbacks[n++] = dst.y >= at.y ? Direction::kSouth : Direction::kNorth;
  } else {
    fallbacks[n++] = dst.x >= at.x ? Direction::kEast : Direction::kWest;
    fallbacks[n++] = dst.x >= at.x ? Direction::kWest : Direction::kEast;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (usable(fallbacks[i])) {
      *rerouted = true;
      return fallbacks[i];
    }
  }
  return Unavailable("no usable link toward destination");
}

void MeshNoc::Drop(const Packet& packet, DropReason reason) {
  // Counted unconditionally, before any handler check: a missing handler
  // must never make telemetry lie about conservation.
  ++telemetry_.dropped;
  if (on_drop_) on_drop_(packet, reason);
}

void MeshNoc::Deliver(Packet&& packet, int hops) {
  ++telemetry_.delivered;
  const double latency = (queue_->now() - packet.injected_at).ns;
  telemetry_.latency_ns.Add(latency);
  StreamSlot(packet.stream_id).Add(latency);
  const Node& dst = nodes_[NodeIndex(packet.destination)];
  if (dst.handler) {
    Delivery delivery{std::move(packet), queue_->now(), hops};
    dst.handler(delivery);
  }
}

TimeNs MeshNoc::ServiceHop(std::uint32_t payload_bytes, TimeNs& busy_until) {
  const TimeNs serialization = SerializationDelay(payload_bytes);
  busy_until = queue_->now() + serialization;
  telemetry_.cost.energy_pj += params_.HopEnergyPj(payload_bytes);
  telemetry_.cost.bytes_moved += payload_bytes;
  telemetry_.cost.latency_ns += serialization.ns;
  ++telemetry_.cost.operations;
  return queue_->now() + params_.router_latency + params_.link_latency +
         serialization;
}

void MeshNoc::OnTagEvent(std::uint64_t tag) {
  if ((tag & kTagDrainBit) != 0) {
    Drain(static_cast<std::size_t>(tag & ~kTagDrainBit));
  } else if ((tag & kTagBurstBit) != 0) {
    // One burst event stands in for one arrival event per admitted packet
    // and replays them in injection order. Packets move into flight slots
    // here, at dispatch, so injection itself never copies them. Bursts are
    // consumed in schedule order.
    std::vector<Packet> burst = std::move(bursts_[burst_head_++]);
    if (burst_head_ == bursts_.size()) {
      bursts_.clear();
      burst_head_ = 0;
    }
    if (flight_free_.size() < burst.size()) {
      flights_.reserve(flights_.size() + burst.size() - flight_free_.size());
    }
    for (Packet& packet : burst) {
      const NodeId source = packet.source;
      Arrive(AllocFlight(std::move(packet), source, 0));
    }
  } else {
    Arrive(static_cast<std::uint32_t>(tag));
  }
}

std::uint32_t MeshNoc::AllocFlight(Packet&& packet, NodeId at, int hops) {
  if (!flight_free_.empty()) {
    const std::uint32_t idx = flight_free_.back();
    flight_free_.pop_back();
    Flight& flight = flights_[idx];
    flight.packet = std::move(packet);
    flight.at = at;
    flight.hops = hops;
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(flights_.size());
  flights_.push_back(Flight{std::move(packet), at, hops});
  return idx;
}

void MeshNoc::Arrive(std::uint32_t idx) {
  Flight& flight = flights_[idx];
  const NodeId node = flight.at;
  CIM_DCHECK(InBounds(node));
  if (nodes_[NodeIndex(node)].failed) {
    Drop(flight.packet, DropReason::kNodeFailed);
    FreeFlight(idx);
    return;
  }
  if (node == flight.packet.destination) {
    const int hops = flight.hops;
    Deliver(std::move(flight.packet), hops);
    FreeFlight(idx);
    return;
  }
  const int hop_cap = 4 * params_.width * params_.height;
  if (flight.hops >= hop_cap) {
    Drop(flight.packet, DropReason::kUnroutable);
    FreeFlight(idx);
    return;
  }
  bool rerouted = false;
  auto dir = NextHop(node, flight.packet.destination, &rerouted);
  if (!dir.ok()) {
    Drop(flight.packet, DropReason::kUnroutable);
    FreeFlight(idx);
    return;
  }
  if (rerouted) ++telemetry_.rerouted_hops;
  Traverse(idx, node, *dir);
}

void MeshNoc::Traverse(std::uint32_t idx, NodeId from, Direction dir) {
  const std::size_t link_idx = LinkIndex(from, dir);
  Link& link = links_[link_idx];
  const auto cls = static_cast<std::size_t>(flights_[idx].packet.qos);
  link.queue[cls].push_back(idx);
  if (!link.drain_scheduled) {
    link.drain_scheduled = true;
    const TimeNs when =
        link.busy_until > queue_->now() ? link.busy_until : queue_->now();
    queue_->ScheduleTagAt(when, this, kTagDrainBit | link_idx);
  }
}

void MeshNoc::Drain(std::size_t link_idx) {
  Link& link = links_[link_idx];
  link.drain_scheduled = false;
  const auto node_idx = link_idx / kDirectionCount;
  const NodeId from{static_cast<std::uint16_t>(node_idx % params_.width),
                    static_cast<std::uint16_t>(node_idx / params_.width)};
  const auto dir = static_cast<Direction>(link_idx % kDirectionCount);

  // If the link failed while packets were queued, reroute them all:
  // class-ascending, FIFO within class.
  if (link.failed) {
    for (int cls = 0; cls < kQosClassCount; ++cls) {
      // Arrive can push onto other links' queues but never this one
      // (NextHop skips failed links), so iterating by index is safe.
      for (std::size_t i = link.head[cls]; i < link.queue[cls].size(); ++i) {
        Arrive(link.queue[cls][i]);
      }
      link.queue[cls].clear();
      link.head[cls] = 0;
    }
    return;
  }

  // Service the highest-priority non-empty class.
  for (int cls = 0; cls < kQosClassCount; ++cls) {
    if (link.head[cls] >= link.queue[cls].size()) continue;
    const std::uint32_t idx = link.queue[cls][link.head[cls]++];
    if (link.head[cls] >= link.queue[cls].size()) {
      link.queue[cls].clear();
      link.head[cls] = 0;
    }
    Flight& flight = flights_[idx];

    const TimeNs arrival =
        ServiceHop(flight.packet.payload_bytes, link.busy_until);
    flight.at = Neighbor(from, dir);
    flight.hops += 1;
    queue_->ScheduleTagAt(arrival, this, idx);
    break;
  }

  bool any_pending = false;
  for (int cls = 0; cls < kQosClassCount; ++cls) {
    if (link.head[cls] < link.queue[cls].size()) any_pending = true;
  }
  if (any_pending) {
    link.drain_scheduled = true;
    queue_->ScheduleTagAt(link.busy_until, this, kTagDrainBit | link_idx);
  }
}

}  // namespace cim::noc
