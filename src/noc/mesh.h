// Event-driven 2-D mesh interconnect with per-class virtual channels,
// dimension-order routing with single-turn failover, link contention and
// full per-stream telemetry.
//
// The model is packet-granular: each hop costs router latency plus link
// serialization at the provisioned bandwidth; a busy link queues packets per
// QoS class and services the highest-priority class first. Links can be
// failed and restored at runtime — the basis of the §IV.B failover and §V.A
// stream-redirection experiments.
//
// Two injection-path implementations share the routing, arbitration and
// telemetry logic (NocPath below): the reference path carries each Packet
// through per-hop closures, the flat path carries a 32-bit index into a
// pooled flight table through tagged events. Results are bit-identical; the
// flat path is what lets fabric-scale co-simulation push millions of packets
// per run (see bench_fabric_cosim).
//
// Packets enter through Inject (one packet) or InjectBurst (a whole buffer
// admitted at one instant) and leave through the per-node delivery handler
// or the mesh-wide drop handler.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/status.h"
#include "noc/packet.h"

namespace cim::noc {

// Injection-path policy (same shape as crossbar::KernelPolicy): kReference
// keeps the original closure-per-hop / deque-of-Packet implementation as the
// golden model; kFlat (the default) is the SoA hot path — pooled flight
// slots, per-link index queues, allocation-free tagged events, one event
// per burst. Both paths draw events from one (when, sequence) order, so
// deliveries, drops, timestamps and telemetry are bit-identical — pinned by
// the noc_test differential suite and re-checked by bench_fabric_cosim.
enum class NocPath : std::uint8_t {
  kReference = 0,
  kFlat = 1,
};

struct MeshParams {
  std::uint16_t width = 4;
  std::uint16_t height = 4;
  double link_bandwidth_gbps = 16.0;  // GB/s per link
  TimeNs router_latency{5.0};         // per-hop pipeline latency
  TimeNs link_latency{2.0};           // wire time-of-flight per hop
  EnergyPj hop_energy_per_byte{1.0};
  EnergyPj router_energy{10.0};       // per packet per hop
  NocPath path = NocPath::kFlat;

  // Energy one packet of `payload_bytes` costs per hop: link energy per
  // byte plus the router's per-packet energy. Both drains charge it per
  // serviced hop, and the fabric co-sim attributes hops x it per element.
  [[nodiscard]] double HopEnergyPj(std::uint32_t payload_bytes) const {
    return hop_energy_per_byte.pj * payload_bytes + router_energy.pj;
  }

  [[nodiscard]] Status Validate() const {
    if (width == 0 || height == 0) return InvalidArgument("empty mesh");
    if (link_bandwidth_gbps <= 0.0) {
      return InvalidArgument("bandwidth must be positive");
    }
    return Status::Ok();
  }
};

enum class Direction : std::uint8_t { kEast = 0, kWest, kNorth, kSouth };
inline constexpr int kDirectionCount = 4;

// Delivery report handed to the receiver's callback.
struct Delivery {
  Packet packet;
  TimeNs delivered_at{0.0};
  int hops = 0;
};

// Why a packet never arrived.
enum class DropReason : std::uint8_t {
  kUnroutable = 0,  // all candidate links at some hop were failed
  kNodeFailed,      // destination node marked failed
};

struct NocTelemetry {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rerouted_hops = 0;  // hops taken off the XY path
  CostReport cost;
  RunningStat latency_ns;
};

class MeshNoc : public EventQueue::TagHandler {
 public:
  using DeliveryHandler = std::function<void(const Delivery&)>;
  using DropHandler = std::function<void(const Packet&, DropReason)>;

  [[nodiscard]] static Expected<MeshNoc> Create(const MeshParams& params,
                                                EventQueue* queue);

  [[nodiscard]] const MeshParams& params() const { return params_; }

  // Receiver registration. A node without a delivery handler silently
  // consumes. The drop handler is mesh-wide: it sees every drop, wherever
  // along the route it happens.
  void SetDeliveryHandler(NodeId node, DeliveryHandler handler);
  void SetDropHandler(DropHandler handler) { on_drop_ = std::move(handler); }

  // Inject a packet at its source at the current simulated time. Faults
  // detectable at the source are reported immediately:
  //   endpoints outside the mesh  -> kInvalidArgument, not counted
  //   source node failed          -> kUnavailable, not counted (the packet
  //                                  never entered the network)
  //   destination node failed     -> kUnavailable; counted injected AND
  //                                  dropped (DropReason::kNodeFailed), so
  //                                  injected == delivered + dropped holds
  //   no usable link at source    -> kFailedPrecondition; counted injected
  //                                  AND dropped (DropReason::kUnroutable)
  // Faults that develop mid-route surface through the drop handler only.
  // Every drop is counted in NocTelemetry whether or not a handler is
  // registered.
  [[nodiscard]] Status Inject(Packet packet);

  // Batched injection for epoch-barrier producers (fabric::FabricCoSim):
  // takes the caller's buffer wholesale. Every packet is admitted exactly as
  // by Inject, in buffer order, with the same status and drop accounting;
  // the first non-ok status is returned after the whole buffer is processed.
  // On the flat path the admitted packets stay in the buffer behind a
  // single tagged event whose dispatch moves them into flight slots and
  // replays their arrivals in injection order — the same processing order,
  // times and decisions as per-packet Inject, for one event instead of N.
  // On the reference path it is a loop over Inject.
  [[nodiscard]] Status InjectBurst(std::vector<Packet>&& packets);

  // Fault hooks: fail/restore a node or one directed link.
  Status SetNodeFailed(NodeId node, bool failed);
  Status SetLinkFailed(NodeId from, Direction dir, bool failed);

  [[nodiscard]] const NocTelemetry& telemetry() const { return telemetry_; }
  // Per-stream latency stats.
  [[nodiscard]] const RunningStat* StreamLatency(std::uint64_t stream) const;

 private:
  struct Link {
    bool failed = false;
    TimeNs busy_until{0.0};
    // One queue per QoS class, serviced highest priority first
    // (reference path only; the flat path queues indices in FlatLink).
    std::array<std::deque<Packet>, kQosClassCount> queues;
    std::array<std::deque<int>, kQosClassCount> queued_hops;
    bool drain_scheduled = false;
  };
  struct Node {
    bool failed = false;
    DeliveryHandler handler;
  };

  // --- flat-path state: a packet in flight owns one pooled slot; link
  // queues and events carry the 32-bit slot index instead of the Packet.
  struct Flight {
    Packet packet;
    NodeId at;      // node the packet is arriving at / queued to leave from
    int hops = 0;
  };
  struct FlatLink {
    TimeNs busy_until{0.0};
    bool drain_scheduled = false;
    // Index queues per QoS class; head is the pop cursor and the vector is
    // compacted when it empties, so steady state never reallocates.
    std::array<std::vector<std::uint32_t>, kQosClassCount> queue;
    std::array<std::size_t, kQosClassCount> head{};
  };
  // Tag encoding for EventQueue::TagHandler dispatch: drain events set the
  // top bit and carry the link index; burst events set bit 62 (bursts are
  // consumed FIFO); bare tags are single-flight arrival slots.
  static constexpr std::uint64_t kTagDrainBit = 1ULL << 63;
  static constexpr std::uint64_t kTagBurstBit = 1ULL << 62;

  MeshNoc(const MeshParams& params, EventQueue* queue);

  [[nodiscard]] std::size_t NodeIndex(NodeId n) const {
    return static_cast<std::size_t>(n.y) * params_.width + n.x;
  }
  [[nodiscard]] bool InBounds(NodeId n) const {
    return n.x < params_.width && n.y < params_.height;
  }
  [[nodiscard]] std::size_t LinkIndex(NodeId from, Direction dir) const {
    return NodeIndex(from) * kDirectionCount + static_cast<std::size_t>(dir);
  }
  [[nodiscard]] static NodeId Neighbor(NodeId n, Direction dir);

  [[nodiscard]] TimeNs SerializationDelay(std::uint32_t bytes) const {
    return TimeNs(static_cast<double>(bytes) / params_.link_bandwidth_gbps);
  }

  // Route one hop: returns the direction to take from `at` toward `dst`,
  // preferring X-then-Y but detouring when the preferred link is failed.
  // rerouted is set when the fallback was used.
  [[nodiscard]] Expected<Direction> NextHop(NodeId at, NodeId dst,
                                            bool* rerouted) const;

  // Shared delivery/drop bookkeeping (both paths).
  void Deliver(Packet&& packet, int hops);
  void Drop(const Packet& packet, DropReason reason);
  RunningStat& StreamSlot(std::uint64_t stream);
  // Validation + injected/drop accounting shared by Inject and InjectBurst;
  // on Ok the packet is stamped, counted and cleared to enter the network.
  // Always inlined (defined in mesh.cc, its only user): it runs once per
  // packet on the injection hot path.
  [[nodiscard, gnu::always_inline]] inline Status AdmitPacket(Packet& packet);
  // One serviced hop, shared by both drains: hold the link for the
  // packet's serialization, charge the hop to the telemetry, and return
  // when the packet reaches the next node.
  [[gnu::always_inline]] inline TimeNs ServiceHop(std::uint32_t payload_bytes,
                                                  TimeNs& busy_until);
  void RecomputeAnyFailure();

  // Reference path.
  void ArriveAt(Packet packet, NodeId node, int hops);
  void TraverseLink(Packet packet, NodeId from, Direction dir, int hops);
  void DrainLink(std::size_t link_idx, NodeId from, Direction dir);

  // Flat path.
  void OnTagEvent(std::uint64_t tag) override;
  std::uint32_t AllocFlight(Packet&& packet, NodeId at, int hops);
  void FreeFlight(std::uint32_t idx) { flight_free_.push_back(idx); }
  void FlatArrive(std::uint32_t idx);
  void FlatTraverse(std::uint32_t idx, NodeId from, Direction dir);
  void FlatDrain(std::size_t link_idx);

  MeshParams params_;
  EventQueue* queue_;
  std::vector<Node> nodes_;
  // Link fault flags live in links_ for both paths; the reference packet
  // queues inside are unused when params_.path == kFlat.
  std::vector<Link> links_;
  std::vector<FlatLink> flat_links_;
  std::vector<Flight> flights_;
  std::vector<std::uint32_t> flight_free_;
  // Admitted buffers handed over by InjectBurst, consumed FIFO by their
  // burst tag events.
  std::vector<std::vector<Packet>> bursts_;
  std::size_t burst_head_ = 0;
  // True iff any node or link is currently failed; lets the healthy
  // injection path skip its fault probes (see AdmitPacket).
  bool any_failure_ = false;
  DropHandler on_drop_;
  NocTelemetry telemetry_;
  // Sorted by stream id; inserts and StreamLatency binary-search it.
  std::vector<std::pair<std::uint64_t, RunningStat>> stream_latency_;
};

}  // namespace cim::noc
