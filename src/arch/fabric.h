// CIM fabric: tiles of micro-units on a packet mesh (Figs 3-5).
//
// A TileGrid is the substrate: one event queue, one mesh and a Tile (a
// pipeline of micro-units, possibly none) per mesh node. It has three
// users: the Fabric programs a grid with streams, the dataflow executor
// places a DAG on one, and fabric::FabricCoSim runs partitioned
// accelerators over one whose tiles are bare mesh endpoints. The Fabric
// holds the stream configuration:
//   * static dataflow — a stream follows a pre-configured tile path,
//   * dynamic dataflow — a per-stream resolver picks the next hop from the
//     current node and payload (routing as a function of state and data),
//   * self-programmable dataflow — kCode packets carry serialized programs
//     that reconfigure a micro-unit on arrival.
// Security (§IV) is enforced at injection (partition admission) and on code
// arrival (authentication tags); payloads can be encrypted in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "arch/micro_unit.h"
#include "common/event_queue.h"
#include "noc/link_cipher.h"
#include "noc/mesh.h"
#include "noc/partition.h"

namespace cim::arch {

class Tile {
 public:
  explicit Tile(std::vector<MicroUnit> micro_units)
      : micro_units_(std::move(micro_units)) {}

  [[nodiscard]] std::size_t micro_unit_count() const {
    return micro_units_.size();
  }
  [[nodiscard]] MicroUnit& micro_unit(std::size_t i) {
    return micro_units_.at(i);
  }

  // Run *payload through every micro-unit in pipeline order, in place; the
  // cost delta is added to *cost.
  [[nodiscard]] Status Process(std::vector<double>* payload, CostReport* cost);

  void SetFailed(bool failed);
  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] CostReport lifetime_cost() const;

 private:
  std::vector<MicroUnit> micro_units_;
  bool failed_ = false;
};

class TileGrid {
 public:
  // `on_delivery` is installed on every mesh node and `on_drop` as the
  // mesh's drop handler. Tile (x, y) holds `micro_units_per_tile` units
  // built from `micro_unit` and named "mu(x,y)#i"; with none, the tiles are
  // bare mesh endpoints.
  [[nodiscard]] static Expected<std::unique_ptr<TileGrid>> Create(
      const noc::MeshParams& mesh, noc::MeshNoc::DeliveryHandler on_delivery,
      noc::MeshNoc::DropHandler on_drop, const MicroUnitParams& micro_unit = {},
      std::size_t micro_units_per_tile = 0);

  // The queue's events hold the mesh's address, so the grid never moves.
  TileGrid(const TileGrid&) = delete;
  TileGrid& operator=(const TileGrid&) = delete;

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] noc::MeshNoc& noc() { return *noc_; }

  [[nodiscard]] Expected<Tile*> TileAt(noc::NodeId node);

  // The mesh's cost plus every tile's lifetime cost, in row-major order.
  [[nodiscard]] CostReport TotalCost() const;

 private:
  TileGrid() = default;

  EventQueue queue_;
  std::optional<noc::MeshNoc> noc_;
  std::vector<Tile> tiles_;  // row-major
};

struct FabricParams {
  noc::MeshParams mesh;
  MicroUnitParams micro_unit;
  std::size_t micro_units_per_tile = 1;
  bool enforce_partitions = false;
  bool encrypt_data = false;
  bool authenticate_code = true;
  std::uint64_t cipher_key = 0x5ca1ab1edeadbeefULL;

  [[nodiscard]] Status Validate() const {
    // A code packet addresses its micro-unit with one byte.
    if (micro_units_per_tile == 0 || micro_units_per_tile > 256) {
      return InvalidArgument("micro_units_per_tile must be in [1, 256]");
    }
    if (Status s = mesh.Validate(); !s.ok()) return s;
    return micro_unit.Validate();
  }
};

struct StreamStats {
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // dropped in flight or processing error
  RunningStat end_to_end_latency_ns;
  CostReport compute_cost;
};

// Every payload hop is allocation-free once the pools have grown: a payload
// waits for its next step (processing at its entry tile, leaving a tile, its
// sink) in a pooled hop record named by a tagged event, crosses the mesh
// serialized into a recycled byte buffer (decrypted in place on arrival),
// and is tracked meanwhile in a ring keyed by packet id.
class Fabric : public EventQueue::TagHandler {
 public:
  using Sink =
      std::function<void(std::vector<double> payload, TimeNs completed_at)>;
  // Dynamic next-hop resolver: nullopt = payload terminates here (sink).
  using RouteResolver = std::function<std::optional<noc::NodeId>(
      noc::NodeId current, std::span<const double> payload)>;

  [[nodiscard]] static Expected<std::unique_ptr<Fabric>> Create(
      const FabricParams& params);

  [[nodiscard]] EventQueue& queue() { return grid_->queue(); }
  [[nodiscard]] noc::MeshNoc& noc() { return grid_->noc(); }
  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] noc::PartitionManager& partitions() { return partitions_; }

  [[nodiscard]] Expected<Tile*> TileAt(noc::NodeId node) {
    return grid_->TileAt(node);
  }

  // --- stream configuration ---------------------------------------------
  // Static dataflow: the payload visits every node on `path` in order and
  // the sink fires at the last node.
  Status ConfigureStream(std::uint64_t stream_id,
                         std::vector<noc::NodeId> path,
                         noc::QosClass qos = noc::QosClass::kBulk);
  // Dynamic dataflow: next hop chosen per node by `resolver`.
  Status ConfigureDynamicStream(std::uint64_t stream_id,
                                noc::NodeId entry, RouteResolver resolver,
                                noc::QosClass qos = noc::QosClass::kBulk);
  Status SetStreamSink(std::uint64_t stream_id, Sink sink);
  // Replace the path of an existing static stream (failover/redirection).
  Status RedirectStream(std::uint64_t stream_id,
                        std::vector<noc::NodeId> new_path);

  // --- traffic -------------------------------------------------------------
  Status InjectData(std::uint64_t stream_id, std::vector<double> payload);
  // Self-programmable dataflow: ship `program` to micro-unit `mu_index` of
  // the tile at `dst`. The program is authenticated when
  // params.authenticate_code is set.
  Status SendProgram(noc::NodeId source, noc::NodeId dst,
                     std::size_t mu_index, const Program& program);

  // --- faults ----------------------------------------------------------------
  Status FailTile(noc::NodeId node);

  // --- introspection -----------------------------------------------------
  // Null for a stream that was never configured.
  [[nodiscard]] const StreamStats* StatsFor(std::uint64_t stream_id) const;
  [[nodiscard]] std::uint64_t rejected_injections() const {
    return rejected_injections_;
  }
  [[nodiscard]] std::uint64_t rejected_code_loads() const {
    return rejected_code_loads_;
  }
  // Total fabric-side compute cost (all tiles) plus NoC cost.
  [[nodiscard]] CostReport TotalCost() const { return grid_->TotalCost(); }
  // Data packets on the mesh between two hops of their stream.
  [[nodiscard]] std::size_t packets_in_flight() const;

 private:
  struct Stream {
    std::uint64_t id = 0;
    std::vector<noc::NodeId> path;  // static streams
    RouteResolver resolver;         // dynamic streams
    noc::NodeId entry;
    noc::QosClass qos = noc::QosClass::kBulk;
    // Shared with every completion scheduled while it was set, so a later
    // SetStreamSink leaves those completions on the sink they were given.
    std::shared_ptr<const Sink> sink;
    bool dynamic = false;
    StreamStats stats;
  };
  // A payload waiting for its stream's next event: processing at `node`
  // (path index `path_index`), leaving `node` for `next` (`path_index` is
  // then next's index), or reaching `sink`. Records are pooled and keep
  // their payload capacity. Streams are never torn down, so `stream`
  // outlives the record.
  struct Hop {
    Stream* stream = nullptr;
    noc::NodeId node;
    noc::NodeId next;
    std::size_t path_index = 0;
    TimeNs start{0.0};  // stream inject time
    std::vector<double> payload;
    std::shared_ptr<const Sink> sink;
  };
  // A data packet on the mesh between two hops of its stream; live iff
  // `stream` is set.
  struct InFlight {
    Stream* stream = nullptr;
    TimeNs start{0.0};           // stream inject time
    std::size_t path_index = 0;  // hop the packet is heading to
  };
  // Tag encoding: the event kind in the top two bits, the hop record's index
  // below. All three kinds share the queue's one sequence counter.
  static constexpr std::uint64_t kTagProcess = 0;
  static constexpr std::uint64_t kTagForward = 1ULL << 62;
  static constexpr std::uint64_t kTagSink = 2ULL << 62;
  static constexpr std::uint64_t kTagKindMask = 3ULL << 62;

  explicit Fabric(const FabricParams& params);
  void OnTagEvent(std::uint64_t tag) override;
  void HandleDataPacket(noc::Delivery& delivery);
  void HandleCodePacket(const noc::Delivery& delivery);
  // Run hop `h`'s payload through the tile at its node, then schedule its
  // forward step or its sink, or free the record.
  void ProcessAt(std::uint32_t h);
  // Serialize hop `h`'s payload into a packet to its next node and inject it.
  void Forward(std::uint32_t h);
  void RunSink(std::uint32_t h);

  std::uint32_t AllocHop();
  void FreeHop(std::uint32_t h) { free_hops_.push_back(h); }
  std::vector<std::uint8_t> TakeBuffer();
  void RecycleBuffer(std::vector<std::uint8_t>&& buffer) {
    spare_buffers_.push_back(std::move(buffer));
  }
  // The in-flight ring covers the packet ids [inflight_head_, inflight_end_)
  // at slot id mod size (a power of two); ids in it that are not data
  // packets on the mesh hold no stream. It grows to the span of live ids.
  void TrackInFlight(std::uint64_t packet_id, const InFlight& flight);
  // Removes and returns the packet's record; false if it has none.
  bool UntrackInFlight(std::uint64_t packet_id, InFlight* flight);

  FabricParams params_;
  std::unique_ptr<TileGrid> grid_;
  noc::PartitionManager partitions_;
  noc::StreamCipher cipher_;
  std::map<std::uint64_t, Stream> streams_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t rejected_injections_ = 0;
  std::uint64_t rejected_code_loads_ = 0;
  std::vector<Hop> hops_;
  std::vector<std::uint32_t> free_hops_;
  std::vector<std::vector<std::uint8_t>> spare_buffers_;
  std::vector<InFlight> inflight_;
  std::uint64_t inflight_head_ = 0;
  std::uint64_t inflight_end_ = 0;
};

}  // namespace cim::arch
