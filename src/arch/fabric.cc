#include "arch/fabric.h"

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/contracts.h"

namespace cim::arch {

Status Tile::Process(std::vector<double>* payload, CostReport* cost) {
  if (failed_) return Unavailable("tile failed");
  for (MicroUnit& mu : micro_units_) {
    const CostReport before = mu.lifetime_cost();
    if (Status s = mu.Execute(payload); !s.ok()) return s;
    if (cost != nullptr) *cost += mu.lifetime_cost() - before;
  }
  return Status::Ok();
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
      [self](noc::Delivery& delivery) {
        if (delivery.packet.kind == noc::PayloadKind::kCode) {
          self->HandleCodePacket(delivery);
        } else {
          self->HandleDataPacket(delivery);
        }
      },
      [self](const noc::Packet& packet, noc::DropReason) {
        // Only the fabric's own data packets belong to a stream; a dropped
        // code packet is counted in the mesh telemetry alone.
        InFlight flight;
        if (self->UntrackInFlight(packet.id, &flight)) {
          ++flight.stream->stats.failed;
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
  cfg.id = stream_id;
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
  cfg.id = stream_id;
  cfg.resolver = std::move(resolver);
  cfg.entry = entry;
  cfg.qos = qos;
  cfg.dynamic = true;
  return Status::Ok();
}

Status Fabric::SetStreamSink(std::uint64_t stream_id, Sink sink) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return NotFound("stream not configured");
  it->second.sink =
      sink ? std::make_shared<const Sink>(std::move(sink)) : nullptr;
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
  const std::uint32_t h = AllocHop();
  Hop& hop = hops_[h];
  hop.stream = &cfg;
  hop.node = cfg.entry;
  hop.path_index = 0;
  hop.start = queue().now();
  hop.payload = std::move(payload);
  queue().ScheduleTagAfter(TimeNs(0.0), this, kTagProcess | h);
  return Status::Ok();
}

void Fabric::OnTagEvent(std::uint64_t tag) {
  const auto h = static_cast<std::uint32_t>(tag & ~kTagKindMask);
  switch (tag & kTagKindMask) {
    case kTagProcess: ProcessAt(h); break;
    case kTagForward: Forward(h); break;
    default: RunSink(h); break;
  }
}

void Fabric::ProcessAt(std::uint32_t h) {
  Stream& cfg = *hops_[h].stream;
  StreamStats& stats = cfg.stats;
  const noc::NodeId node = hops_[h].node;

  auto tile = TileAt(node);
  CostReport delta;
  if (!tile.ok() || (*tile)->failed() ||
      !(*tile)->Process(&hops_[h].payload, &delta).ok()) {
    ++stats.failed;
    FreeHop(h);
    return;
  }
  stats.compute_cost += delta;
  const TimeNs done_at = queue().now() + TimeNs(delta.latency_ns);

  // Decide the next hop. The resolver may inject, which can grow hops_:
  // the payload's buffer survives that (a vector move keeps its buffer),
  // but no Hop& does, so the record is looked up again afterwards.
  static_assert(std::is_nothrow_move_constructible_v<Hop>,
                "growing hops_ must move each payload's buffer, not copy it");
  std::optional<noc::NodeId> next;
  const std::size_t path_index = hops_[h].path_index;
  if (cfg.dynamic) {
    next = cfg.resolver(node, hops_[h].payload);
  } else if (path_index + 1 < cfg.path.size()) {
    next = cfg.path[path_index + 1];
  }
  Hop& hop = hops_[h];

  if (!next.has_value()) {
    ++stats.completed;
    stats.end_to_end_latency_ns.Add((done_at - hop.start).ns);
    if (!cfg.sink) {
      FreeHop(h);
      return;
    }
    hop.sink = cfg.sink;
    queue().ScheduleTagAt(done_at, this, kTagSink | h);
    return;
  }
  // Forward over the mesh after processing completes.
  hop.next = *next;
  hop.path_index = path_index + 1;
  queue().ScheduleTagAt(done_at, this, kTagForward | h);
}

void Fabric::Forward(std::uint32_t h) {
  const Hop& hop = hops_[h];
  Stream& cfg = *hop.stream;
  noc::Packet packet;
  packet.id = next_packet_id_++;
  packet.stream_id = cfg.id;
  packet.source = hop.node;
  packet.destination = hop.next;
  packet.qos = cfg.qos;
  packet.kind = noc::PayloadKind::kData;
  packet.inline_payload = TakeBuffer();
  SerializeVector(hop.payload, &packet.inline_payload);
  packet.payload_bytes =
      static_cast<std::uint32_t>(packet.inline_payload.size());
  const InFlight flight{&cfg, hop.start, hop.path_index};
  FreeHop(h);  // the payload rides in the packet from here on

  if (params_.enforce_partitions) {
    if (Status s = partitions_.Admit(packet); !s.ok()) {
      ++rejected_injections_;
      ++cfg.stats.failed;
      RecycleBuffer(std::move(packet.inline_payload));
      return;
    }
  }
  if (params_.encrypt_data) {
    packet.encrypted = true;
    const CostReport cipher_cost =
        cipher_.Apply(packet.inline_payload, packet.id);
    cfg.stats.compute_cost += cipher_cost;
  }
  TrackInFlight(packet.id, flight);
  const std::uint64_t packet_id = packet.id;
  if (Status s = noc().Inject(std::move(packet)); !s.ok()) {
    // Injection-time drops (failed destination, cut-off source) already
    // ran the drop handler, which untracked the packet and counted the
    // failure; count here only when the mesh never saw the packet.
    InFlight untracked;
    if (UntrackInFlight(packet_id, &untracked)) ++cfg.stats.failed;
  }
}

void Fabric::RunSink(std::uint32_t h) {
  // Everything leaves the record before the sink runs: the sink may inject.
  Hop& hop = hops_[h];
  const std::shared_ptr<const Sink> sink = std::move(hop.sink);
  std::vector<double> payload = std::move(hop.payload);
  FreeHop(h);
  // The event was scheduled at the completion time, so it runs then.
  (*sink)(std::move(payload), queue().now());
}

void Fabric::HandleDataPacket(noc::Delivery& delivery) {
  noc::Packet& packet = delivery.packet;
  InFlight flight;
  if (!UntrackInFlight(packet.id, &flight)) {
    return;  // unknown packet (e.g. injected directly into the NoC)
  }
  StreamStats& stats = flight.stream->stats;
  if (packet.encrypted) {
    const CostReport cipher_cost =
        cipher_.Apply(packet.inline_payload, packet.id);
    stats.compute_cost += cipher_cost;
  }
  const std::uint32_t h = AllocHop();
  Hop& hop = hops_[h];
  const Status decoded = DeserializeVector(packet.inline_payload, &hop.payload);
  RecycleBuffer(std::move(packet.inline_payload));
  if (!decoded.ok()) {
    ++stats.failed;
    FreeHop(h);
    return;
  }
  hop.stream = flight.stream;
  hop.node = packet.destination;
  hop.path_index = flight.path_index;
  hop.start = flight.start;
  ProcessAt(h);
}

std::uint32_t Fabric::AllocHop() {
  if (!free_hops_.empty()) {
    const std::uint32_t h = free_hops_.back();
    free_hops_.pop_back();
    return h;
  }
  hops_.emplace_back();
  return static_cast<std::uint32_t>(hops_.size() - 1);
}

std::vector<std::uint8_t> Fabric::TakeBuffer() {
  if (spare_buffers_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  return buffer;
}

void Fabric::TrackInFlight(std::uint64_t packet_id, const InFlight& flight) {
  CIM_DCHECK(packet_id >= inflight_end_);  // ids are handed out in order
  if (inflight_head_ == inflight_end_) {
    inflight_head_ = inflight_end_ = packet_id;
  }
  if (packet_id - inflight_head_ >= inflight_.size()) {
    std::size_t size = std::max<std::size_t>(64, inflight_.size());
    while (packet_id - inflight_head_ >= size) size *= 2;
    std::vector<InFlight> grown(size);
    for (std::uint64_t id = inflight_head_; id < inflight_end_; ++id) {
      grown[id & (size - 1)] = inflight_[id & (inflight_.size() - 1)];
    }
    inflight_ = std::move(grown);
  }
  // Every slot but the live packets' is empty (untracking clears its slot,
  // growing copies only live ones), so ids skipped since the last tracked
  // packet, such as code packets', already read as not in flight.
  inflight_[packet_id & (inflight_.size() - 1)] = flight;
  inflight_end_ = packet_id + 1;
}

bool Fabric::UntrackInFlight(std::uint64_t packet_id, InFlight* flight) {
  if (packet_id < inflight_head_ || packet_id >= inflight_end_) return false;
  const std::uint64_t mask = inflight_.size() - 1;
  InFlight& slot = inflight_[packet_id & mask];
  if (slot.stream == nullptr) return false;
  *flight = slot;
  slot = InFlight{};
  while (inflight_head_ < inflight_end_ &&
         inflight_[inflight_head_ & mask].stream == nullptr) {
    ++inflight_head_;
  }
  return true;
}

std::size_t Fabric::packets_in_flight() const {
  std::size_t live = 0;
  for (std::uint64_t id = inflight_head_; id < inflight_end_; ++id) {
    if (inflight_[id & (inflight_.size() - 1)].stream != nullptr) ++live;
  }
  return live;
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
