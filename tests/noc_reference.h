// Reference model of the mesh interconnect, for differential checks of
// noc::MeshNoc (tests/noc_test.cc, bench/bench_fabric_cosim.cc).
//
// ReferenceMesh keeps the original closure-per-hop carrier: every arrival
// and every link drain is a heap-allocated EventQueue closure, each link
// queues whole Packets in one std::deque per QoS class, every admission
// runs all three fault probes, and InjectBurst is a loop over Inject. It
// carries its own copy of the routing, admission and hop-service rules and
// uses only the public noc types and EventQueue, so a change to MeshNoc's
// rules shows up as a disagreement instead of being mirrored here.
//
// Its public surface is MeshNoc's, so one templated driver runs either.
// Closures capture `this`: like MeshNoc, a mesh must not move once packets
// are in flight.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/status.h"
#include "noc/mesh.h"
#include "noc/packet.h"

namespace cim::noc {

class ReferenceMesh {
 public:
  using DeliveryHandler = MeshNoc::DeliveryHandler;
  using DropHandler = MeshNoc::DropHandler;

  [[nodiscard]] static Expected<ReferenceMesh> Create(
      const MeshParams& params, EventQueue* queue) {
    if (queue == nullptr) return InvalidArgument("event queue required");
    if (Status s = params.Validate(); !s.ok()) return s;
    return ReferenceMesh(params, queue);
  }

  void SetDeliveryHandler(NodeId node, DeliveryHandler handler) {
    CIM_CHECK(InBounds(node));
    nodes_[NodeIndex(node)].handler = std::move(handler);
  }
  void SetDropHandler(DropHandler handler) { on_drop_ = std::move(handler); }

  [[nodiscard]] Status Inject(Packet packet) {
    if (Status s = AdmitPacket(packet); !s.ok()) return s;
    queue_->ScheduleAfter(TimeNs(0.0), [this, packet = std::move(packet)] {
      ArriveAt(packet, packet.source, 0);
    });
    return Status::Ok();
  }

  [[nodiscard]] Status InjectBurst(std::vector<Packet>&& packets) {
    Status first = Status::Ok();
    for (Packet& packet : packets) {
      Status s = Inject(std::move(packet));
      if (!s.ok() && first.ok()) first = std::move(s);
    }
    return first;
  }

  Status SetNodeFailed(NodeId node, bool failed) {
    if (!InBounds(node)) return OutOfRange("node outside mesh");
    nodes_[NodeIndex(node)].failed = failed;
    return Status::Ok();
  }

  Status SetLinkFailed(NodeId from, Direction dir, bool failed) {
    if (!InBounds(from) || !InBounds(Neighbor(from, dir))) {
      return OutOfRange("link outside mesh");
    }
    links_[LinkIndex(from, dir)].failed = failed;
    return Status::Ok();
  }

  [[nodiscard]] const NocTelemetry& telemetry() const { return telemetry_; }

  [[nodiscard]] const RunningStat* StreamLatency(std::uint64_t stream) const {
    const auto it = std::lower_bound(
        stream_latency_.begin(), stream_latency_.end(), stream,
        [](const auto& entry, std::uint64_t id) { return entry.first < id; });
    if (it == stream_latency_.end() || it->first != stream) return nullptr;
    return &it->second;
  }

 private:
  struct Link {
    bool failed = false;
    TimeNs busy_until{0.0};
    // One queue per QoS class, serviced highest priority first.
    std::array<std::deque<Packet>, kQosClassCount> queues;
    std::array<std::deque<int>, kQosClassCount> queued_hops;
    bool drain_scheduled = false;
  };
  struct Node {
    bool failed = false;
    DeliveryHandler handler;
  };

  ReferenceMesh(const MeshParams& params, EventQueue* queue)
      : params_(params), queue_(queue) {
    const std::size_t node_count =
        static_cast<std::size_t>(params.width) * params.height;
    nodes_.resize(node_count);
    links_.resize(node_count * kDirectionCount);
  }

  [[nodiscard]] std::size_t NodeIndex(NodeId n) const {
    return static_cast<std::size_t>(n.y) * params_.width + n.x;
  }
  [[nodiscard]] bool InBounds(NodeId n) const {
    return n.x < params_.width && n.y < params_.height;
  }
  [[nodiscard]] std::size_t LinkIndex(NodeId from, Direction dir) const {
    return NodeIndex(from) * kDirectionCount + static_cast<std::size_t>(dir);
  }
  [[nodiscard]] static NodeId Neighbor(NodeId n, Direction dir) {
    switch (dir) {
      case Direction::kEast: return {static_cast<std::uint16_t>(n.x + 1), n.y};
      case Direction::kWest: return {static_cast<std::uint16_t>(n.x - 1), n.y};
      case Direction::kNorth:
        return {n.x, static_cast<std::uint16_t>(n.y + 1)};
      case Direction::kSouth:
        return {n.x, static_cast<std::uint16_t>(n.y - 1)};
    }
    return n;
  }

  // Every probe runs on every admission, faults armed or not.
  [[nodiscard]] Status AdmitPacket(Packet& packet) {
    if (!InBounds(packet.source) || !InBounds(packet.destination)) {
      return InvalidArgument("packet endpoints outside mesh");
    }
    if (nodes_[NodeIndex(packet.source)].failed) {
      // Never entered the network: not counted as injected.
      return Unavailable("source node failed");
    }
    packet.injected_at = queue_->now();
    ++telemetry_.injected;
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
    return Status::Ok();
  }

  // X-then-Y, with a single-turn detour along the perpendicular dimension
  // (toward the destination first) when the preferred link is unusable.
  [[nodiscard]] Expected<Direction> NextHop(NodeId at, NodeId dst,
                                            bool* rerouted) const {
    *rerouted = false;
    Direction preferred;
    if (dst.x != at.x) {
      preferred = dst.x > at.x ? Direction::kEast : Direction::kWest;
    } else {
      preferred = dst.y > at.y ? Direction::kNorth : Direction::kSouth;
    }
    const auto usable = [&](Direction dir) {
      const NodeId next = Neighbor(at, dir);
      if (!InBounds(next) || links_[LinkIndex(at, dir)].failed) return false;
      // A dead final destination may be stepped onto; a dead transit
      // node may not.
      if (!(next == dst) && nodes_[NodeIndex(next)].failed) return false;
      return true;
    };
    if (usable(preferred)) return preferred;
    std::array<Direction, 2> fallbacks{};
    if (dst.x != at.x) {
      fallbacks[0] = dst.y >= at.y ? Direction::kNorth : Direction::kSouth;
      fallbacks[1] = dst.y >= at.y ? Direction::kSouth : Direction::kNorth;
    } else {
      fallbacks[0] = dst.x >= at.x ? Direction::kEast : Direction::kWest;
      fallbacks[1] = dst.x >= at.x ? Direction::kWest : Direction::kEast;
    }
    for (const Direction dir : fallbacks) {
      if (usable(dir)) {
        *rerouted = true;
        return dir;
      }
    }
    return Unavailable("no usable link toward destination");
  }

  void Drop(const Packet& packet, DropReason reason) {
    ++telemetry_.dropped;
    if (on_drop_) on_drop_(packet, reason);
  }

  RunningStat& StreamSlot(std::uint64_t stream) {
    auto it = std::lower_bound(
        stream_latency_.begin(), stream_latency_.end(), stream,
        [](const auto& entry, std::uint64_t id) { return entry.first < id; });
    if (it == stream_latency_.end() || it->first != stream) {
      it = stream_latency_.insert(it, {stream, RunningStat{}});
    }
    return it->second;
  }

  void Deliver(Packet&& packet, int hops) {
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

  void ArriveAt(Packet packet, NodeId node, int hops) {
    if (nodes_[NodeIndex(node)].failed) {
      Drop(packet, DropReason::kNodeFailed);
      return;
    }
    if (node == packet.destination) {
      Deliver(std::move(packet), hops);
      return;
    }
    // Hop cap breaks detour livelock when a region is fully failed.
    const int hop_cap = 4 * params_.width * params_.height;
    if (hops >= hop_cap) {
      Drop(packet, DropReason::kUnroutable);
      return;
    }
    bool rerouted = false;
    auto dir = NextHop(node, packet.destination, &rerouted);
    if (!dir.ok()) {
      Drop(packet, DropReason::kUnroutable);
      return;
    }
    if (rerouted) ++telemetry_.rerouted_hops;
    TraverseLink(std::move(packet), node, *dir, hops);
  }

  void TraverseLink(Packet packet, NodeId from, Direction dir, int hops) {
    const std::size_t link_idx = LinkIndex(from, dir);
    Link& link = links_[link_idx];
    const auto cls = static_cast<std::size_t>(packet.qos);
    link.queues[cls].push_back(std::move(packet));
    link.queued_hops[cls].push_back(hops);
    if (!link.drain_scheduled) {
      link.drain_scheduled = true;
      const TimeNs when =
          link.busy_until > queue_->now() ? link.busy_until : queue_->now();
      queue_->ScheduleAt(when, [this, link_idx, from, dir] {
        DrainLink(link_idx, from, dir);
      });
    }
  }

  void DrainLink(std::size_t link_idx, NodeId from, Direction dir) {
    Link& link = links_[link_idx];
    link.drain_scheduled = false;

    // If the link failed while packets were queued, reroute them all.
    if (link.failed) {
      for (int cls = 0; cls < kQosClassCount; ++cls) {
        while (!link.queues[cls].empty()) {
          Packet packet = std::move(link.queues[cls].front());
          link.queues[cls].pop_front();
          const int hops = link.queued_hops[cls].front();
          link.queued_hops[cls].pop_front();
          ArriveAt(std::move(packet), from, hops);
        }
      }
      return;
    }

    // Service the highest-priority non-empty class: hold the link for the
    // packet's serialization and charge the hop.
    for (int cls = 0; cls < kQosClassCount; ++cls) {
      if (link.queues[cls].empty()) continue;
      Packet packet = std::move(link.queues[cls].front());
      link.queues[cls].pop_front();
      const int hops = link.queued_hops[cls].front();
      link.queued_hops[cls].pop_front();

      const TimeNs serialization(static_cast<double>(packet.payload_bytes) /
                                 params_.link_bandwidth_gbps);
      link.busy_until = queue_->now() + serialization;
      telemetry_.cost.energy_pj +=
          params_.hop_energy_per_byte.pj * packet.payload_bytes +
          params_.router_energy.pj;
      telemetry_.cost.bytes_moved += packet.payload_bytes;
      telemetry_.cost.latency_ns += serialization.ns;
      ++telemetry_.cost.operations;
      const TimeNs arrival = queue_->now() + params_.router_latency +
                             params_.link_latency + serialization;
      const NodeId next = Neighbor(from, dir);
      queue_->ScheduleAt(arrival,
                         [this, packet = std::move(packet), next, hops] {
                           ArriveAt(packet, next, hops + 1);
                         });
      break;
    }

    // More traffic pending: schedule the next drain when the link frees.
    bool any_pending = false;
    for (const auto& q : link.queues) {
      if (!q.empty()) any_pending = true;
    }
    if (any_pending) {
      link.drain_scheduled = true;
      queue_->ScheduleAt(link.busy_until, [this, link_idx, from, dir] {
        DrainLink(link_idx, from, dir);
      });
    }
  }

  MeshParams params_;
  EventQueue* queue_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  DropHandler on_drop_;
  NocTelemetry telemetry_;
  // Sorted by stream id, as MeshNoc keeps it.
  std::vector<std::pair<std::uint64_t, RunningStat>> stream_latency_;
};

}  // namespace cim::noc
