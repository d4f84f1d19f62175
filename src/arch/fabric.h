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

  // Run the payload through every micro-unit in pipeline order. Returns the
  // transformed payload; the cost delta is added to *cost.
  [[nodiscard]] Expected<std::vector<double>> Process(
      std::span<const double> input, CostReport* cost);

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

class Fabric {
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

 private:
  explicit Fabric(const FabricParams& params);
  void HandleDataPacket(const noc::Delivery& delivery);
  void HandleCodePacket(const noc::Delivery& delivery);
  struct Stream {
    std::vector<noc::NodeId> path;  // static streams
    RouteResolver resolver;         // dynamic streams
    noc::NodeId entry;
    noc::QosClass qos = noc::QosClass::kBulk;
    Sink sink;
    bool dynamic = false;
    StreamStats stats;
  };
  // Run the payload through the tile at `node`, then either forward it to
  // the next hop or fire the stream sink.
  void ProcessAt(std::uint64_t stream_id, Stream& cfg, noc::NodeId node,
                 std::size_t path_index, std::vector<double> payload,
                 TimeNs start);
  // A data packet on the mesh between two hops of its stream.
  struct InFlight {
    TimeNs start;            // stream inject time
    std::size_t path_index;  // hop the packet is heading to
  };

  FabricParams params_;
  std::unique_ptr<TileGrid> grid_;
  noc::PartitionManager partitions_;
  noc::StreamCipher cipher_;
  std::map<std::uint64_t, Stream> streams_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t rejected_injections_ = 0;
  std::uint64_t rejected_code_loads_ = 0;
  std::map<std::uint64_t, InFlight> inflight_;  // keyed by packet id
};

}  // namespace cim::arch
