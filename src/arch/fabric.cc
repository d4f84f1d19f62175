#include "arch/fabric.h"

#include <limits>
#include <string>
#include <utility>

namespace cim::arch {

Expected<std::vector<double>> Tile::Process(std::span<const double> input,
                                            CostReport* cost) {
  if (failed_) return Unavailable("tile failed");
  std::vector<double> acc(input.begin(), input.end());
  for (MicroUnit& mu : micro_units_) {
    const CostReport before = mu.lifetime_cost();
    auto out = mu.Execute(acc);
    if (!out.ok()) return out.status();
    acc = std::move(out.value());
    if (cost != nullptr) *cost += mu.lifetime_cost() - before;
  }
  return acc;
}

void Tile::SetFailed(bool failed) {
  failed_ = failed;
  for (MicroUnit& mu : micro_units_) mu.SetFailed(failed);
}

CostReport Tile::lifetime_cost() const {
  CostReport total;
  for (const MicroUnit& mu : micro_units_) total += mu.lifetime_cost();
  return total;
}

Expected<std::unique_ptr<TileGrid>> TileGrid::Create(
    const noc::MeshParams& mesh, noc::MeshNoc::DeliveryHandler on_delivery,
    noc::MeshNoc::DropHandler on_drop, const MicroUnitParams& micro_unit,
    std::size_t micro_units_per_tile) {
  std::unique_ptr<TileGrid> grid(new TileGrid());
  auto noc = noc::MeshNoc::Create(mesh, &grid->queue_);
  if (!noc.ok()) return noc.status();
  grid->noc_.emplace(std::move(noc.value()));
  for (std::uint16_t y = 0; y < mesh.height; ++y) {
    for (std::uint16_t x = 0; x < mesh.width; ++x) {
      std::vector<MicroUnit> units;
      for (std::size_t i = 0; i < micro_units_per_tile; ++i) {
        MicroUnitParams mu_params = micro_unit;
        mu_params.name = "mu(" + std::to_string(x) + "," + std::to_string(y) +
                         ")#" + std::to_string(i);
        auto mu = MicroUnit::Create(mu_params);
        if (!mu.ok()) return mu.status();
        units.push_back(std::move(mu.value()));
      }
      grid->tiles_.emplace_back(std::move(units));
      grid->noc_->SetDeliveryHandler({x, y}, on_delivery);
    }
  }
  grid->noc_->SetDropHandler(std::move(on_drop));
  return grid;
}

Expected<Tile*> TileGrid::TileAt(noc::NodeId node) {
  const noc::MeshParams& mesh = noc_->params();
  if (node.x >= mesh.width || node.y >= mesh.height) {
    return OutOfRange("tile coordinate outside fabric");
  }
  return &tiles_[static_cast<std::size_t>(node.y) * mesh.width + node.x];
}

CostReport TileGrid::TotalCost() const {
  CostReport total = noc_->telemetry().cost;
  for (const Tile& tile : tiles_) total += tile.lifetime_cost();
  return total;
}

Expected<std::unique_ptr<Fabric>> Fabric::Create(const FabricParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  std::unique_ptr<Fabric> fabric(new Fabric(params));
  Fabric* self = fabric.get();
  auto grid = TileGrid::Create(
      params.mesh,
      [self](const noc::Delivery& delivery) {
        if (delivery.packet.kind == noc::PayloadKind::kCode) {
          self->HandleCodePacket(delivery);
        } else {
          self->HandleDataPacket(delivery);
        }
      },
      [self](const noc::Packet& packet, noc::DropReason) {
        // Only the fabric's own data packets belong to a stream; a dropped
        // code packet is counted in the mesh telemetry alone.
        if (self->inflight_.erase(packet.id) > 0) {
          ++self->streams_.at(packet.stream_id).stats.failed;
        }
      },
      params.micro_unit, params.micro_units_per_tile);
  if (!grid.ok()) return grid.status();
  fabric->grid_ = std::move(grid.value());
  return fabric;
}

Fabric::Fabric(const FabricParams& params)
    : params_(params), cipher_(params.cipher_key) {}

Status Fabric::ConfigureStream(std::uint64_t stream_id,
                               std::vector<noc::NodeId> path,
                               noc::QosClass qos) {
  if (path.empty()) return InvalidArgument("stream path must be non-empty");
  for (noc::NodeId n : path) {
    if (auto tile = TileAt(n); !tile.ok()) return tile.status();
  }
  Stream& cfg = streams_[stream_id];
  cfg.path = std::move(path);
  cfg.entry = cfg.path.front();
  cfg.qos = qos;
  cfg.dynamic = false;
  return Status::Ok();
}

Status Fabric::ConfigureDynamicStream(std::uint64_t stream_id,
                                      noc::NodeId entry,
                                      RouteResolver resolver,
                                      noc::QosClass qos) {
  if (!resolver) return InvalidArgument("resolver required");
  if (auto tile = TileAt(entry); !tile.ok()) return tile.status();
  Stream& cfg = streams_[stream_id];
  cfg.resolver = std::move(resolver);
  cfg.entry = entry;
  cfg.qos = qos;
  cfg.dynamic = true;
  return Status::Ok();
}

Status Fabric::SetStreamSink(std::uint64_t stream_id, Sink sink) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return NotFound("stream not configured");
  it->second.sink = std::move(sink);
  return Status::Ok();
}

Status Fabric::RedirectStream(std::uint64_t stream_id,
                              std::vector<noc::NodeId> new_path) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return NotFound("stream not configured");
  if (it->second.dynamic) {
    return FailedPrecondition("cannot redirect a dynamic stream");
  }
  if (new_path.empty()) return InvalidArgument("new path must be non-empty");
  for (noc::NodeId n : new_path) {
    if (auto tile = TileAt(n); !tile.ok()) return tile.status();
  }
  it->second.path = std::move(new_path);
  it->second.entry = it->second.path.front();
  return Status::Ok();
}

Status Fabric::InjectData(std::uint64_t stream_id,
                          std::vector<double> payload) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return NotFound("stream not configured");
  Stream& cfg = it->second;
  ++cfg.stats.injected;
  const TimeNs start = queue().now();
  queue().ScheduleAfter(
      TimeNs(0.0), [this, stream_id, &cfg, entry = cfg.entry, start,
                    payload = std::move(payload)]() mutable {
        // Process at the entry node with path index 0.
        ProcessAt(stream_id, cfg, entry, 0, std::move(payload), start);
      });
  return Status::Ok();
}

// Streams are never torn down, so `cfg` outlives every event below.
void Fabric::ProcessAt(std::uint64_t stream_id, Stream& cfg, noc::NodeId node,
                       std::size_t path_index, std::vector<double> payload,
                       TimeNs start) {
  StreamStats& stats = cfg.stats;

  auto tile = TileAt(node);
  if (!tile.ok() || (*tile)->failed()) {
    ++stats.failed;
    return;
  }
  CostReport delta;
  auto processed = (*tile)->Process(payload, &delta);
  if (!processed.ok()) {
    ++stats.failed;
    return;
  }
  stats.compute_cost += delta;
  const TimeNs done_at = queue().now() + TimeNs(delta.latency_ns);

  // Decide the next hop.
  std::optional<noc::NodeId> next;
  if (cfg.dynamic) {
    next = cfg.resolver(node, *processed);
  } else if (path_index + 1 < cfg.path.size()) {
    next = cfg.path[path_index + 1];
  }

  if (!next.has_value()) {
    ++stats.completed;
    stats.end_to_end_latency_ns.Add((done_at - start).ns);
    if (cfg.sink) {
      queue().ScheduleAt(done_at,
                         [sink = cfg.sink, result = std::move(*processed),
                          done_at]() mutable {
                           sink(std::move(result), done_at);
                         });
    }
    return;
  }

  // Forward over the mesh after processing completes.
  const noc::NodeId next_node = *next;
  const std::size_t next_index = path_index + 1;
  queue().ScheduleAt(done_at, [this, &cfg, stream_id, node, next_node,
                               next_index, start,
                               result = std::move(*processed)] {
    noc::Packet packet;
    packet.id = next_packet_id_++;
    packet.stream_id = stream_id;
    packet.source = node;
    packet.destination = next_node;
    packet.qos = cfg.qos;
    packet.kind = noc::PayloadKind::kData;
    packet.inline_payload = SerializeVector(result);
    packet.payload_bytes =
        static_cast<std::uint32_t>(packet.inline_payload.size());

    if (params_.enforce_partitions) {
      if (Status s = partitions_.Admit(packet); !s.ok()) {
        ++rejected_injections_;
        ++cfg.stats.failed;
        return;
      }
    }
    if (params_.encrypt_data) {
      packet.encrypted = true;
      const CostReport cipher_cost =
          cipher_.Apply(packet.inline_payload, packet.id);
      cfg.stats.compute_cost += cipher_cost;
    }
    inflight_[packet.id] = InFlight{start, next_index};
    const std::uint64_t packet_id = packet.id;
    if (Status s = noc().Inject(std::move(packet)); !s.ok()) {
      // Injection-time drops (failed destination, cut-off source) already
      // ran the drop handler, which erased the inflight entry and counted
      // the failure; count here only when the mesh never saw the packet.
      if (inflight_.erase(packet_id) > 0) ++cfg.stats.failed;
    }
  });
}

void Fabric::HandleDataPacket(const noc::Delivery& delivery) {
  noc::Packet packet = delivery.packet;
  const auto it = inflight_.find(packet.id);
  if (it == inflight_.end()) {
    return;  // unknown packet (e.g. injected directly into the NoC)
  }
  const InFlight hop = it->second;
  inflight_.erase(it);

  Stream& cfg = streams_.at(packet.stream_id);
  StreamStats& stats = cfg.stats;
  if (packet.encrypted) {
    const CostReport cipher_cost =
        cipher_.Apply(packet.inline_payload, packet.id);
    stats.compute_cost += cipher_cost;
  }
  auto payload = DeserializeVector(packet.inline_payload);
  if (!payload.ok()) {
    ++stats.failed;
    return;
  }
  ProcessAt(packet.stream_id, cfg, packet.destination, hop.path_index,
            std::move(payload.value()), hop.start);
}

Status Fabric::SendProgram(noc::NodeId source, noc::NodeId dst,
                           std::size_t mu_index, const Program& program) {
  if (auto tile = TileAt(dst); !tile.ok()) return tile.status();
  if (auto tile = TileAt(source); !tile.ok()) return tile.status();
  // The code-packet header carries the micro-unit index in one byte.
  if (mu_index > std::numeric_limits<std::uint8_t>::max()) {
    return OutOfRange("micro-unit index does not fit the code header");
  }
  noc::Packet packet;
  packet.id = next_packet_id_++;
  packet.stream_id = 0;  // control plane
  packet.source = source;
  packet.destination = dst;
  packet.qos = noc::QosClass::kControl;
  packet.kind = noc::PayloadKind::kCode;
  packet.inline_payload.push_back(static_cast<std::uint8_t>(mu_index));
  const std::vector<std::uint8_t> body = SerializeProgram(program);
  packet.inline_payload.insert(packet.inline_payload.end(), body.begin(),
                               body.end());
  packet.payload_bytes =
      static_cast<std::uint32_t>(packet.inline_payload.size());
  if (params_.authenticate_code) {
    packet.auth_tag = cipher_.Tag(packet.inline_payload, packet.id);
  }
  return noc().Inject(std::move(packet));
}

void Fabric::HandleCodePacket(const noc::Delivery& delivery) {
  const noc::Packet& packet = delivery.packet;
  if (params_.authenticate_code &&
      !cipher_.Verify(packet.inline_payload, packet.id, packet.auth_tag)) {
    ++rejected_code_loads_;
    return;
  }
  if (packet.inline_payload.empty()) {
    ++rejected_code_loads_;
    return;
  }
  const std::size_t mu_index = packet.inline_payload[0];
  auto tile = TileAt(packet.destination);
  if (!tile.ok() || (*tile)->failed() ||
      mu_index >= (*tile)->micro_unit_count()) {
    ++rejected_code_loads_;
    return;
  }
  const std::span<const std::uint8_t> body(packet.inline_payload.data() + 1,
                                           packet.inline_payload.size() - 1);
  if (Status s = (*tile)->micro_unit(mu_index).LoadProgramBytes(body);
      !s.ok()) {
    ++rejected_code_loads_;
  }
}

Status Fabric::FailTile(noc::NodeId node) {
  auto tile = TileAt(node);
  if (!tile.ok()) return tile.status();
  (*tile)->SetFailed(true);
  return noc().SetNodeFailed(node, true);
}

const StreamStats* Fabric::StatsFor(std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  return it == streams_.end() ? nullptr : &it->second.stats;
}

}  // namespace cim::arch
