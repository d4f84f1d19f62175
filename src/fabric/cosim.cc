#include "fabric/cosim.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "common/contracts.h"
#include "common/rng.h"

namespace cim::fabric {

FabricCoSim::FabricCoSim(const FabricParams& params, FabricPlan plan)
    : plan_(std::move(plan)), pool_(WorkersForThreads(params.worker_threads)) {}

Expected<std::unique_ptr<FabricCoSim>> FabricCoSim::Create(
    const FabricParams& params, const nn::Network& net) {
  if (Status s = params.Validate(); !s.ok()) return s;
  auto plan = PartitionNetwork(net, params.partition);
  if (!plan.ok()) return plan.status();
  auto sim =
      std::unique_ptr<FabricCoSim>(new FabricCoSim(params, std::move(*plan)));

  noc::MeshParams mesh;
  mesh.width = params.partition.grid_width;
  mesh.height = params.partition.grid_height;
  FabricCoSim* self = sim.get();
  auto grid = arch::TileGrid::Create(
      mesh,
      [self](const noc::Delivery& delivery) { self->OnDelivery(delivery); },
      [self](const noc::Packet& packet, noc::DropReason) {
        self->OnDrop(packet);
      });
  if (!grid.ok()) return grid.status();
  sim->grid_ = std::move(grid.value());

  dpe::DpeParams tile_params = params.dpe;
  tile_params.worker_threads = 1;  // tiles are the unit of host parallelism
  // Each tile's accelerator is created (and programmed) on its own stream
  // (seed, tile index), so the tiles build on any thread; errors are
  // reported in tile order.
  const std::size_t n = sim->plan_.tiles.size();
  std::vector<std::optional<Expected<std::unique_ptr<dpe::DpeAccelerator>>>>
      made(n);
  sim->pool_.ParallelFor(n, [&](std::size_t i) {
    made[i].emplace(dpe::DpeAccelerator::Create(
        tile_params, sim->plan_.tiles[i].subnet,
        Rng(DeriveSeed(params.seed, i))));
  });
  sim->tiles_.reserve(n);
  for (auto& accel : made) {
    if (!accel->ok()) return accel->status();
    sim->tiles_.push_back(std::move(accel->value()));
  }
  return sim;
}

void FabricCoSim::OnDelivery(const noc::Delivery& delivery) {
  const std::uint64_t b = delivery.packet.stream_id;
  if (b >= elements_.size()) return;  // not fabric traffic
  // id = ((b * S + stage) * K + src) * K + dst, as minted by InferBatch.
  const std::size_t K = plan_.splits_per_stage;
  const std::uint64_t id = delivery.packet.id;
  const auto stage =
      static_cast<std::size_t>((id / (K * K)) % plan_.stage_count);
  const auto src = static_cast<std::size_t>((id / K) % K);
  const TileSpec& src_tile = plan_.tile(stage, src);
  ElementState& el = elements_[b];

  // Write the producer's slice into the element's next-stage input. The K
  // consumer tiles receive identical copies, so the write is idempotent.
  CIM_DCHECK(el.next_input.size() >= src_tile.out_begin + src_tile.out_count);
  CIM_DCHECK(delivery.packet.inline_payload.size() ==
             src_tile.out_count * sizeof(double));
  std::memcpy(el.next_input.data() + src_tile.out_begin,
              delivery.packet.inline_payload.data(),
              src_tile.out_count * sizeof(double));
  ++el.packets_received;

  const double latency =
      (delivery.delivered_at - delivery.packet.injected_at).ns;
  el.transfer_ns_max = std::max(el.transfer_ns_max, latency);

  // Per-element energy attribution: the mesh's per-hop charge, once per hop.
  const double hops = static_cast<double>(delivery.hops);
  const double energy =
      hops * grid_->noc().params().HopEnergyPj(delivery.packet.payload_bytes);
  const double bytes = hops * delivery.packet.payload_bytes;
  el.result.noc_cost.energy_pj += energy;
  el.result.cost.energy_pj += energy;
  el.result.noc_cost.bytes_moved += bytes;
  el.result.cost.bytes_moved += bytes;
  el.result.noc_cost.operations += static_cast<std::uint64_t>(delivery.hops);
  el.result.cost.operations += static_cast<std::uint64_t>(delivery.hops);
}

void FabricCoSim::OnDrop(const noc::Packet& packet) {
  const std::uint64_t b = packet.stream_id;
  if (b >= elements_.size()) return;
  ElementState& el = elements_[b];
  ++el.packets_dropped;
  // The slice never arrives: its zero-fill degrades this element gracefully
  // instead of poisoning the batch — the accelerator's degrade semantics,
  // lifted to the fabric.
  el.result.fault_report.degraded += 1;
}

Expected<std::vector<dpe::InferResult>> FabricCoSim::InferBatch(
    std::span<const nn::Tensor> inputs) {
  const std::size_t S = plan_.stage_count;
  const std::size_t K = plan_.splits_per_stage;
  const std::size_t B = inputs.size();
  if (B == 0) return std::vector<dpe::InferResult>{};
  const std::size_t in_dim = nn::ElementCount(plan_.stage_input_shape[0]);
  for (const nn::Tensor& input : inputs) {
    if (input.size() != in_dim) {
      return InvalidArgument("input size does not match partitioned network");
    }
  }

  elements_.assign(B, ElementState{});
  for (std::size_t b = 0; b < B; ++b) {
    elements_[b].next_input = inputs[b].vec();
  }

  struct Task {
    std::size_t stage, split, element;
  };
  std::vector<Task> tasks;
  std::vector<std::optional<Expected<dpe::InferResult>>> task_results;
  std::vector<nn::Tensor> split_out(K);
  std::vector<noc::Packet> packets;

  // Wavefront pipeline: epoch e runs stage s on element e - s.
  const std::size_t epochs = B + S - 1;
  for (std::size_t e = 0; e < epochs; ++e) {
    tasks.clear();
    for (std::size_t s = 0; s < S && s <= e; ++s) {
      const std::size_t b = e - s;
      if (b >= B) continue;
      for (std::size_t k = 0; k < K; ++k) tasks.push_back(Task{s, k, b});
    }

    // Compute phase: each active tile runs its stage. Tasks write disjoint
    // slots and read disjoint (or shared read-only) element inputs, so the
    // region is race-free and scheduling cannot influence any value.
    task_results.assign(tasks.size(), std::nullopt);
    const auto run_task = [&](std::size_t i) {
      const Task& t = tasks[i];
      nn::Tensor in(plan_.stage_input_shape[t.stage],
                    elements_[t.element].next_input);
      task_results[i] = tiles_[t.stage * K + t.split]->Infer(in);
    };
    pool_.ParallelFor(tasks.size(), run_task);

    // Barrier: merge in canonical (stage, split) order, mint packets in
    // canonical (stage, src, dst) order.
    const TimeNs epoch_start = grid_->queue().now();
    double max_compute_ns = 0.0;
    packets.clear();
    for (std::size_t i = 0; i < tasks.size();) {
      const std::size_t s = tasks[i].stage;
      const std::size_t b = tasks[i].element;
      ElementState& el = elements_[b];
      double stage_latency_ns = 0.0;
      for (std::size_t k = 0; k < K; ++k, ++i) {
        CIM_CHECK(task_results[i].has_value());
        if (!task_results[i]->ok()) return task_results[i]->status();
        dpe::InferResult r = std::move(**task_results[i]);
        // Splits fire concurrently in hardware: stage latency is the max,
        // energy/traffic are the sum.
        stage_latency_ns = std::max(stage_latency_ns, r.cost.latency_ns);
        el.result.cost.energy_pj += r.cost.energy_pj;
        el.result.cost.bytes_moved += r.cost.bytes_moved;
        el.result.cost.operations += r.cost.operations;
        el.result.fault_report += r.fault_report;
        split_out[k] = std::move(r.output);
      }
      el.result.cost.latency_ns += stage_latency_ns;
      max_compute_ns = std::max(max_compute_ns, stage_latency_ns);

      if (s + 1 < S) {
        // Zero-filled receive buffer first: deliveries (and drops) for this
        // transition land during the exchange below.
        el.next_input.assign(plan_.stage_out_dim[s], 0.0);
        el.transfer_ns_max = 0.0;
        for (std::size_t src = 0; src < K; ++src) {
          const TileSpec& src_tile = plan_.tile(s, src);
          const std::size_t payload_bytes = src_tile.out_count * sizeof(double);
          for (std::size_t dst = 0; dst < K; ++dst) {
            noc::Packet p;
            p.id = ((static_cast<std::uint64_t>(b) * S + s) * K + src) * K +
                   dst;
            p.stream_id = b;
            p.source = src_tile.node;
            p.destination = plan_.tile(s + 1, dst).node;
            // Every activation is one class, so QoS never arbitrates.
            p.qos = noc::QosClass::kBulk;
            p.kind = noc::PayloadKind::kData;
            p.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
            p.inline_payload.resize(payload_bytes);
            std::memcpy(p.inline_payload.data(), split_out[src].data(),
                        payload_bytes);
            packets.push_back(std::move(p));
          }
        }
      } else {
        nn::Tensor out(plan_.output_shape);
        for (std::size_t k = 0; k < K; ++k) {
          const TileSpec& t = plan_.tile(s, k);
          std::memcpy(out.data() + t.out_begin, split_out[k].data(),
                      t.out_count * sizeof(double));
        }
        el.result.output = std::move(out);
      }
    }

    // Exchange: the clock advances to the epoch's compute horizon, packets
    // inject there in canonical order, and the event queue drains — every
    // delivery time is a pure function of this epoch's canonical sequence.
    grid_->queue().RunUntil(epoch_start + TimeNs(max_compute_ns));
    if (!packets.empty()) {
      // One burst: the mesh takes the whole buffer, so injection is
      // validation + one event; `packets` is left moved-from and the
      // clear() at the top of the next epoch re-arms it.
      Status s = grid_->noc().InjectBurst(std::move(packets));
      // Drops at injection (failed destination / cut source) already
      // degraded the element via OnDrop; only a malformed packet is fatal.
      if (!s.ok() && s.code() == ErrorCode::kInvalidArgument) return s;
      grid_->queue().Run();
    }
    for (std::size_t s = 0; s + 1 < S && s <= e; ++s) {
      const std::size_t b = e - s;
      if (b >= B) continue;
      ElementState& el = elements_[b];
      el.result.noc_cost.latency_ns += el.transfer_ns_max;
      el.result.cost.latency_ns += el.transfer_ns_max;
    }
    ++epochs_run_;
  }

  std::vector<dpe::InferResult> results;
  results.reserve(B);
  for (ElementState& el : elements_) {
    results.push_back(std::move(el.result));
  }
  elements_.clear();
  return results;
}

}  // namespace cim::fabric
