#include "dpe/accelerator.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <variant>

#include "common/contracts.h"
#include "reliability/detection.h"

namespace cim::dpe {
namespace {

// Seed salts separating a tile's remap streams from its MVM noise streams.
// Replacement engines are keyed by (base_seed, generation) — never by spare
// claim order — so recovery is deterministic at any thread count.
constexpr std::uint64_t kRemapEngineSalt = 0x52454d31ULL;  // "REM1"
constexpr std::uint64_t kRemapNoiseSalt = 0x52454d32ULL;   // "REM2"
// Re-executions of a detected-bad tile MVM before the element degrades.
constexpr int kMaxRetries = 1;

}  // namespace

DpeAccelerator::DpeAccelerator(const DpeParams& params,
                               const nn::Network& net)
    : params_(params),
      net_(net),
      pool_(WorkersForThreads(params.worker_threads)) {}

Expected<std::unique_ptr<DpeAccelerator>> DpeAccelerator::Create(
    const DpeParams& params, const nn::Network& net, Rng rng) {
  if (Status s = params.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);  // validates the network
  if (!profiles.ok()) return profiles.status();
  std::unique_ptr<DpeAccelerator> acc(new DpeAccelerator(params, net));
  acc->profiles_ = std::move(*profiles);
  // Root of every per-tile noise-stream family; drawn first so the tile
  // seeds do not depend on how the programming path consumes the rng.
  acc->root_seed_ = rng.NextU64();

  if (params.fault_tolerance.enabled) {
    auto monitor =
        reliability::AgingMonitor::Create(params.fault_tolerance.aging);
    if (!monitor.ok()) return monitor.status();
    acc->monitor_.emplace(std::move(monitor.value()));
  }

  // Fork first: every layer's engine tiles are created before any array is
  // programmed, each tile's RNG (and through it each array's) forked from
  // `rng` in (layer, tile) order. Programming draws only on those per-array
  // streams, so ProgramTiles may run the tiles on any thread in any order.
  // matrices[k] is mvm-layer k's weight matrix; im2col owns the conv ones.
  std::vector<std::span<const double>> matrices;
  std::vector<std::vector<double>> im2col(net.layers.size());
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::Layer& layer = net.layers[li];
    MappedMvmLayer mapped;
    // MVM invocations per inference: the stride between batch elements in
    // the per-tile noise-stream numbering.
    mapped.calls_per_inference = acc->profiles_[li].mvm_calls;
    if (const auto* dense = std::get_if<nn::DenseLayer>(&layer)) {
      if (Status s = acc->MapMatrix(dense->in_features, dense->out_features,
                                    rng, &mapped);
          !s.ok()) {
        return s;
      }
      acc->mvm_layers_.push_back(std::move(mapped));
      matrices.push_back(dense->weights);
    } else if (const auto* conv = std::get_if<nn::Conv2dLayer>(&layer)) {
      // im2col weight matrix: (ic*k*k) x oc, row-major.
      const std::size_t k = conv->kernel;
      const std::size_t in_dim = conv->in_channels * k * k;
      std::vector<double>& matrix = im2col[li];
      matrix.assign(in_dim * conv->out_channels, 0.0);
      for (std::size_t oc = 0; oc < conv->out_channels; ++oc) {
        for (std::size_t ic = 0; ic < conv->in_channels; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::size_t row = (ic * k + ky) * k + kx;
              matrix[row * conv->out_channels + oc] =
                  conv->weights[((oc * conv->in_channels + ic) * k + ky) * k +
                                kx];
            }
          }
        }
      }
      if (Status s = acc->MapMatrix(in_dim, conv->out_channels, rng, &mapped);
          !s.ok()) {
        return s;
      }
      acc->mvm_layers_.push_back(std::move(mapped));
      matrices.push_back(matrix);
    }
  }
  for (std::size_t i = 0; i < acc->mvm_layers_.size(); ++i) {
    acc->mvm_layers_[i].target = "dpe.layer" + std::to_string(i);
  }
  if (Status s = acc->ProgramTiles(matrices); !s.ok()) return s;

  // Pre-provision the spares pool; ids continue after the active tiles.
  if (acc->monitor_) {
    const auto spare_base = static_cast<std::uint32_t>(acc->next_tile_index_);
    for (std::size_t i = 0; i < params.fault_tolerance.spare_tiles; ++i) {
      if (Status s = acc->monitor_->AddUnit(
              spare_base + static_cast<std::uint32_t>(i), /*is_spare=*/true);
          !s.ok()) {
        return s;
      }
    }
  }

  return acc;
}

Status DpeAccelerator::MapMatrix(std::size_t in_dim, std::size_t out_dim,
                                 Rng& rng, MappedMvmLayer* mapped) {
  const std::size_t rows = params_.array.rows;
  mapped->in_dim = in_dim;
  mapped->out_dim = out_dim;

  const crossbar::MvmEngineParams engine_params = params_.EngineParams();
  // The guard column occupies one physical column per engine, so guarded
  // tiles carry one fewer logical output each.
  const std::size_t cols =
      engine_params.guard_column ? params_.array.cols - 1 : params_.array.cols;
  CIM_REQUIRE(cols > 0, InvalidArgument("array too narrow for guard column"));

  for (std::size_t r0 = 0; r0 < in_dim; r0 += rows) {
    const std::size_t r_len = std::min(rows, in_dim - r0);
    for (std::size_t c0 = 0; c0 < out_dim; c0 += cols) {
      const std::size_t c_len = std::min(cols, out_dim - c0);
      auto engine = crossbar::MvmEngine::Create(engine_params, r_len, c_len,
                                                rng.Fork());
      if (!engine.ok()) return engine.status();
      arrays_used_ += 2 * static_cast<std::size_t>(engine_params.slices());
      EngineTile tile{std::move(engine.value()), r0, c0, r_len, c_len,
                      DeriveSeed(root_seed_, next_tile_index_),
                      /*base_seed=*/0, /*generation=*/0, /*unit_id=*/0,
                      /*submatrix=*/{}, /*ft=*/nullptr};
      tile.base_seed = tile.noise_seed;
      if (ft_enabled()) {
        tile.unit_id = static_cast<std::uint32_t>(next_tile_index_);
        tile.ft = std::make_unique<TileFtState>();
        if (Status s = monitor_->AddUnit(tile.unit_id); !s.ok()) return s;
      }
      ++next_tile_index_;
      mapped->tiles.push_back(std::move(tile));
    }
  }
  return Status::Ok();
}

Status DpeAccelerator::ProgramTiles(
    std::span<const std::span<const double>> matrices) {
  CIM_CHECK(matrices.size() == mvm_layers_.size());
  struct Job {
    EngineTile* tile;
    std::span<const double> matrix;
    std::size_t out_dim;  // the matrix's row stride
  };
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < mvm_layers_.size(); ++k) {
    for (EngineTile& tile : mvm_layers_[k].tiles) {
      jobs.push_back({&tile, matrices[k], mvm_layers_[k].out_dim});
    }
  }
  // Each job touches only its own tile's engine and arrays (each array
  // programs on its own RNG), and writes only its own slot.
  std::vector<std::optional<Expected<CostReport>>> costs(jobs.size());
  const auto program = [&](std::size_t j) {
    const Job& job = jobs[j];
    EngineTile& tile = *job.tile;
    std::vector<double> sub(tile.in * tile.out);
    for (std::size_t r = 0; r < tile.in; ++r) {
      for (std::size_t c = 0; c < tile.out; ++c) {
        sub[r * tile.out + c] =
            job.matrix[(tile.row_offset + r) * job.out_dim +
                       (tile.col_offset + c)];
      }
    }
    costs[j].emplace(tile.engine.ProgramWeights(sub));
    if (ft_enabled()) tile.submatrix = std::move(sub);  // for spare remaps
  };
  pool_.ParallelFor(jobs.size(), program);

  // Fold in (layer, tile) order, so every sum adds in the same order at
  // any thread count. Tiles program in parallel across engines: the
  // latency is the slowest tile's.
  for (const std::optional<Expected<CostReport>>& cost : costs) {
    if (!cost->ok()) return cost->status();
    const CostReport& c = **cost;
    program_cost_.energy_pj += c.energy_pj;
    program_cost_.latency_ns = std::max(program_cost_.latency_ns, c.latency_ns);
    program_cost_.bytes_moved += c.bytes_moved;
    program_cost_.operations += c.operations;
  }
  return Status::Ok();
}

Status DpeAccelerator::AttachFaultInjector(
    reliability::FaultInjector* injector) {
  if (injector == nullptr) return InvalidArgument("null fault injector");
  for (MappedMvmLayer& layer : mvm_layers_) {
    reliability::InjectionHooks hooks;
    hooks.tiles = layer.tiles.size();
    MappedMvmLayer* lp = &layer;
    hooks.tile_dims =
        [lp](std::size_t t) -> std::pair<std::size_t, std::size_t> {
      const EngineTile& tile = lp->tiles.at(t);
      return {tile.in, tile.out};
    };
    hooks.inject_cell = [lp](std::size_t t, std::size_t row, std::size_t col,
                             int plane, bool stuck_on) {
      lp->tiles.at(t).engine.InjectCellFault(
          plane, row, col,
          stuck_on ? device::CellFault::kStuckOn
                   : device::CellFault::kStuckOff);
    };
    hooks.drift = [lp](std::size_t t, double drift_ns) {
      lp->tiles.at(t).engine.Age(TimeNs(drift_ns));
    };
    if (ft_enabled()) {
      // Tile death is a recovery-layer concept: without fault tolerance
      // there is no dead flag to honour, so the hook stays unset and
      // scenarios demanding it fail Arm() with a clear error.
      DpeAccelerator* self = this;
      hooks.kill_tile = [self, lp](std::size_t t) {
        EngineTile& tile = lp->tiles.at(t);
        tile.ft->dead.store(true, std::memory_order_release);
        CIM_CHECK(self->monitor_->RecordFailure(tile.unit_id).ok());
      };
    }
    if (Status s = injector->RegisterHooks(layer.target, std::move(hooks));
        !s.ok()) {
      return s;
    }
  }
  injector_ = injector;
  return Status::Ok();
}

Expected<crossbar::MvmResult> DpeAccelerator::RunMvm(
    const MappedMvmLayer& mapped, std::span<const double> x,
    std::uint64_t stream_offset, std::uint64_t element_step,
    ElementFaultReport* report) {
  if (x.size() != mapped.in_dim) {
    return InvalidArgument("MVM input dimension mismatch");
  }
  const std::uint64_t call = mapped.committed_calls + stream_offset;
  const std::size_t tiles = mapped.tiles.size();
  const bool ft = ft_enabled();

  struct TilePartial {
    std::optional<Expected<crossbar::MvmResult>> result;
    reliability::GuardedPayload payload;  // sealed tile -> merge transfer
    bool sealed = false;
  };
  std::vector<TilePartial> partials(tiles);

  const auto run_tile = [&](std::size_t t) {
    // MvmEngine::Compute with an external rng mutates no engine state, so
    // tiles (and concurrent batch elements touching the same tile) are
    // safe to run on any thread; the draw sequence depends only on the
    // (tile, call) pair.
    auto& tile = const_cast<EngineTile&>(mapped.tiles[t]);
    if (tile.ft != nullptr &&
        tile.ft->dead.load(std::memory_order_acquire)) {
      partials[t].result.emplace(Unavailable("engine tile is dead"));
      return;
    }
    Rng noise(DeriveSeed(tile.noise_seed, call));
    auto computed =
        tile.engine.Compute(x.subspan(tile.row_offset, tile.in), &noise);
    if (computed.ok()) {
      if (ft) {
        // Seal models the tile -> merge transfer; corruption injected
        // below lands "in flight" and is caught at the merge boundary.
        partials[t].payload =
            reliability::GuardedPayload::Seal(std::move(computed->y));
        partials[t].sealed = true;
      }
      if (injector_ != nullptr) {
        // Consulted exactly once per (tile, call) — on the first attempt
        // only: a transient is gone by the time a retry re-runs the tile.
        const double perturb = injector_->TransientPerturbation(
            mapped.target, t, element_step, call);
        if (perturb != 0.0) {
          auto& values =
              partials[t].sealed ? partials[t].payload.values : computed->y;
          for (double& v : values) v *= (1.0 + perturb);
        }
      }
    }
    partials[t].result.emplace(std::move(computed));
  };

  pool_.ParallelFor(tiles, run_tile);

  // Deterministic merge in tile order: partial sums, energy and operation
  // counts accumulate in the same order whichever thread ran each tile,
  // and the MVM latency is the slowest tile (they fire concurrently in hardware).
  // This is the tile boundary of §V.A: each partial is checked (guard
  // column verdict + transfer checksum) before it may touch the merged
  // output, and retries re-run the tile serially right here. Without fault
  // tolerance no guard column or checksum is engaged and no tile can die,
  // so every ok partial merges as-is and any error is returned.
  crossbar::MvmResult merged;
  merged.y.assign(mapped.out_dim, 0.0);
  double max_tile_latency = 0.0;
  double retry_latency = 0.0;
  for (std::size_t t = 0; t < tiles; ++t) {
    Expected<crossbar::MvmResult>& partial = *partials[t].result;
    auto& tile = const_cast<EngineTile&>(mapped.tiles[t]);

    const auto note_guard = [&](const crossbar::MvmResult& r) {
      if (!r.guard_checked) return;
      tile.ft->guard_checks.fetch_add(1, std::memory_order_relaxed);
      if (!r.guard_ok) {
        tile.ft->guard_failures.fetch_add(1, std::memory_order_relaxed);
      }
    };

    bool tile_ok = false;
    bool dead = false;
    if (partial.ok()) {
      note_guard(*partial);
      const bool guard_bad = partial->guard_checked && !partial->guard_ok;
      const bool transfer_bad =
          partials[t].sealed && !partials[t].payload.Verify().ok();
      tile_ok = !guard_bad && !transfer_bad;
      merged.cost.energy_pj += partial->cost.energy_pj;
      merged.cost.operations += partial->cost.operations;
      max_tile_latency = std::max(max_tile_latency, partial->cost.latency_ns);
    } else if (ft && partial.status().code() == ErrorCode::kUnavailable) {
      dead = true;  // dead tile: detect, contribute zeros, flag for remap
    } else {
      return partial.status();
    }

    if (!tile_ok) ++report->detected;

    // Retry on the same engine with an attempt-salted noise stream. A
    // transient (gone on re-run) passes on the first retry; stuck cells
    // keep tripping the guard and fall through to degrade.
    if (!tile_ok && !dead) {
      for (int a = 1; a <= kMaxRetries && !tile_ok; ++a) {
        ++report->retried;
        Rng noise(DeriveSeed(DeriveSeed(tile.noise_seed, call),
                             static_cast<std::uint64_t>(a)));
        auto retry =
            tile.engine.Compute(x.subspan(tile.row_offset, tile.in), &noise);
        if (!retry.ok()) return retry.status();
        note_guard(*retry);
        merged.cost.energy_pj += retry->cost.energy_pj;
        merged.cost.operations += retry->cost.operations;
        retry_latency += retry->cost.latency_ns;  // retries serialize
        if (!(retry->guard_checked && !retry->guard_ok)) {
          partial = std::move(retry);
          partials[t].sealed = false;  // re-transfer is clean
          tile_ok = true;
        }
      }
    }

    if (tile_ok || (!dead && partial.ok())) {
      // Merge the (possibly degraded) partial; a dead tile contributes
      // zeros instead of poisoning the element.
      const std::vector<double>& values =
          partials[t].sealed ? partials[t].payload.values : partial->y;
      for (std::size_t c = 0; c < tile.out; ++c) {
        merged.y[tile.col_offset + c] += values[c];
      }
    }
    if (!tile_ok) {
      ++report->degraded;
      tile.ft->needs_remap.store(true, std::memory_order_release);
    }
  }
  merged.cost.latency_ns = max_tile_latency + retry_latency;
  return merged;
}

Expected<InferResult> DpeAccelerator::RunElement(
    const nn::Tensor& input, std::uint64_t element_index,
    ElementFaultReport* report) {
  nn::Tensor current = input;
  std::size_t mvm_index = 0;
  CostReport cost;
  const std::uint64_t element_step = committed_elements_ + element_index;

  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::Layer& layer = net_.layers[li];
    const nn::LayerProfile& p = profiles_[li];
    if (current.shape() != p.in_shape) {
      current = nn::Tensor(p.in_shape, std::move(current.vec()));
    }
    if (const auto* dense = std::get_if<nn::DenseLayer>(&layer)) {
      const MappedMvmLayer& mapped = mvm_layers_[mvm_index++];
      cost.energy_pj += params_.BufferEnergyPj(
          static_cast<double>(mapped.in_dim + mapped.out_dim));
      auto mvm = RunMvm(mapped, current.vec(),
                        element_index * mapped.calls_per_inference,
                        element_step, report);
      if (!mvm.ok()) return mvm.status();
      cost.energy_pj += mvm->cost.energy_pj;
      cost.operations += mvm->cost.operations;
      cost.latency_ns += mvm->cost.latency_ns;
      std::vector<double> y = std::move(mvm->y);
      for (std::size_t o = 0; o < dense->out_features; ++o) {
        y[o] = nn::Activate(y[o] + dense->bias[o], dense->activation);
      }
      cost.energy_pj += params_.ActivationEnergyPj(
          static_cast<double>(dense->out_features));
      cost.latency_ns += params_.activation_latency_ns;
      current = nn::Tensor(p.out_shape, std::move(y));
    } else if (const auto* conv = std::get_if<nn::Conv2dLayer>(&layer)) {
      const MappedMvmLayer& mapped = mvm_layers_[mvm_index++];
      const std::size_t k = conv->kernel;
      const std::size_t ih = p.in_shape[1];
      const std::size_t iw = p.in_shape[2];
      const std::size_t oh = p.out_shape[1];
      const std::size_t ow = p.out_shape[2];
      nn::Tensor out(p.out_shape);
      std::vector<double> column(mapped.in_dim, 0.0);
      // Latency model mirrors the analytical pipeline: pixels serialize in
      // groups of conv_replication; energy counts every pixel.
      double pixel_latency = 0.0;
      std::uint64_t pixels = 0;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          // im2col gather.
          std::fill(column.begin(), column.end(), 0.0);
          for (std::size_t ic = 0; ic < conv->in_channels; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy =
                    static_cast<std::int64_t>(oy * conv->stride + ky) -
                    static_cast<std::int64_t>(conv->padding);
                const std::int64_t ix =
                    static_cast<std::int64_t>(ox * conv->stride + kx) -
                    static_cast<std::int64_t>(conv->padding);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::int64_t>(ih) ||
                    ix >= static_cast<std::int64_t>(iw)) {
                  continue;
                }
                column[(ic * k + ky) * k + kx] =
                    current.at3(ic, static_cast<std::size_t>(iy),
                                static_cast<std::size_t>(ix));
              }
            }
          }
          auto mvm = RunMvm(mapped, column,
                            element_index * mapped.calls_per_inference +
                                pixels,
                            element_step, report);
          if (!mvm.ok()) return mvm.status();
          cost.energy_pj += mvm->cost.energy_pj;
          cost.operations += mvm->cost.operations;
          pixel_latency = std::max(pixel_latency, mvm->cost.latency_ns);
          ++pixels;
          for (std::size_t oc = 0; oc < conv->out_channels; ++oc) {
            out.at3(oc, oy, ox) =
                nn::Activate(mvm->y[oc] + conv->bias[oc], conv->activation);
          }
        }
      }
      cost.latency_ns +=
          static_cast<double>(params_.ConvWaves(pixels)) * pixel_latency;
      cost.energy_pj +=
          params_.ActivationEnergyPj(static_cast<double>(p.out_elements));
      cost.latency_ns += params_.activation_latency_ns;
      cost.energy_pj += params_.BufferEnergyPj(
          static_cast<double>((mapped.in_dim + conv->out_channels) * pixels));
      current = std::move(out);
    } else if (const auto* pool = std::get_if<nn::MaxPoolLayer>(&layer)) {
      current = nn::MaxPool(current, *pool);
      cost.energy_pj +=
          params_.ActivationEnergyPj(static_cast<double>(p.out_elements));
      cost.latency_ns += params_.activation_latency_ns;
    }
  }
  return InferResult{std::move(current), cost, {}, {}};
}

void DpeAccelerator::CommitCalls(std::uint64_t elements) {
  for (MappedMvmLayer& layer : mvm_layers_) {
    layer.committed_calls += elements * layer.calls_per_inference;
  }
}

Status DpeAccelerator::RemapTile(EngineTile& tile,
                                 std::uint32_t spare_unit) {
  ++tile.generation;
  Rng engine_rng(DeriveSeed(DeriveSeed(tile.base_seed, kRemapEngineSalt),
                            tile.generation));
  auto engine = crossbar::MvmEngine::Create(params_.EngineParams(),
                                            tile.in, tile.out, engine_rng);
  if (!engine.ok()) return engine.status();
  auto cost = engine->ProgramWeights(tile.submatrix);
  if (!cost.ok()) return cost.status();
  // Reprogramming a spare rides the slow write path (§VI asymmetry) — the
  // reason detection + retry runs before remap is even considered.
  recovery_cost_.energy_pj += cost->energy_pj;
  recovery_cost_.latency_ns += cost->latency_ns;
  recovery_cost_.operations += cost->operations;
  tile.engine = std::move(engine.value());
  tile.noise_seed = DeriveSeed(DeriveSeed(tile.base_seed, kRemapNoiseSalt),
                               tile.generation);
  tile.unit_id = spare_unit;
  // The fresh engine's write counters restart at the programming writes
  // just spent; re-baseline the drain marks so they feed the new unit.
  tile.ft->drained_write_attempts = 0;
  tile.ft->drained_verify_failures = 0;
  tile.ft->dead.store(false, std::memory_order_release);
  tile.ft->needs_remap.store(false, std::memory_order_release);
  return Status::Ok();
}

void DpeAccelerator::RecoverAtBoundary() {
  if (!ft_enabled()) return;

  // Drain write/verify and guard-check telemetry into the aging monitor.
  // Guard-check failures feed the verify-failure channel: a tile whose
  // guard keeps tripping is failing its read-out contract.
  for (MappedMvmLayer& layer : mvm_layers_) {
    for (EngineTile& tile : layer.tiles) {
      const crossbar::EngineWriteStats stats = tile.engine.write_stats();
      const std::uint64_t checks =
          tile.ft->guard_checks.load(std::memory_order_relaxed);
      const std::uint64_t failures =
          tile.ft->guard_failures.load(std::memory_order_relaxed);
      const std::uint64_t d_writes =
          stats.attempts - tile.ft->drained_write_attempts;
      const std::uint64_t d_wfail =
          stats.verify_failures - tile.ft->drained_verify_failures;
      const std::uint64_t d_checks = checks - tile.ft->drained_guard_checks;
      const std::uint64_t d_gfail = failures - tile.ft->drained_guard_failures;
      if (d_writes != 0 || d_checks != 0) {
        CIM_CHECK(monitor_
                      ->RecordWrites(tile.unit_id, d_writes,
                                     d_writes + d_checks, d_wfail + d_gfail)
                      .ok());
      }
      tile.ft->drained_write_attempts = stats.attempts;
      tile.ft->drained_verify_failures = stats.verify_failures;
      tile.ft->drained_guard_checks = checks;
      tile.ft->drained_guard_failures = failures;
    }
  }
  // Remap tiles the monitor retires before they fail.
  const reliability::MonitorReport report = monitor_->Evaluate();
  for (std::uint32_t unit : report.newly_retired) {
    for (MappedMvmLayer& layer : mvm_layers_) {
      for (EngineTile& tile : layer.tiles) {
        if (tile.unit_id == unit) {
          tile.ft->needs_remap.store(true, std::memory_order_release);
        }
      }
    }
  }

  // Remap flagged tiles onto spares in deterministic (layer, tile) order;
  // with the pool exhausted the tile stays flagged and keeps degrading —
  // the graceful floor of the recovery ladder.
  for (MappedMvmLayer& layer : mvm_layers_) {
    for (EngineTile& tile : layer.tiles) {
      if (!tile.ft->needs_remap.load(std::memory_order_acquire) &&
          !tile.ft->dead.load(std::memory_order_acquire)) {
        continue;
      }
      if (monitor_->available_spares() == 0) continue;
      auto spare = monitor_->ClaimSpare();
      if (!spare.ok()) continue;
      if (Status s = RemapTile(tile, spare.value()); !s.ok()) {
        return;  // keep already-done remaps; tile stays degraded
      }
      ++recovery_stats_.remapped;
    }
  }
}

Expected<InferResult> DpeAccelerator::Infer(const nn::Tensor& input) {
  auto results = InferBatch(std::span<const nn::Tensor>(&input, 1));
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

Expected<std::vector<InferResult>> DpeAccelerator::InferBatch(
    std::span<const nn::Tensor> inputs) {
  for (const nn::Tensor& input : inputs) {
    if (input.shape() != net_.input_shape) {
      return InvalidArgument("input shape mismatch in batch");
    }
  }
  if (inputs.empty()) return std::vector<InferResult>{};

  const std::size_t batch = inputs.size();
  std::vector<std::optional<Expected<InferResult>>> elements(batch);
  std::vector<ElementFaultReport> reports(batch);

  // Structural faults fire only between waves: the batch is split at every
  // scheduled fault step, so tile state is constant while any element is in
  // flight and recovery decisions cannot race with compute. Without an
  // armed injector this degenerates to one wave — the original batch loop.
  const std::uint64_t base = committed_elements_;
  std::vector<std::uint64_t> boundaries;
  if (injector_ != nullptr && injector_->armed()) {
    boundaries = injector_->StructuralStepsIn(base, base + batch);
  }
  boundaries.push_back(base + batch);

  std::uint64_t wave_start = base;
  for (std::uint64_t wave_end : boundaries) {
    if (injector_ != nullptr && injector_->armed()) {
      injector_->AdvanceTo(wave_start);
    }
    const auto lo = static_cast<std::size_t>(wave_start - base);
    const auto hi = static_cast<std::size_t>(wave_end - base);
    const auto run_element = [&](std::size_t i) {
      const std::size_t b = lo + i;
      elements[b].emplace(RunElement(inputs[b], b, &reports[b]));
    };
    // Batch elements are the outer parallel axis, so RunMvm's tile loop
    // runs inline inside it. With one element the batch loop runs inline
    // and the tile axis parallelizes instead.
    pool_.ParallelFor(hi - lo, run_element);
    RecoverAtBoundary();
    wave_start = wave_end;
  }

  std::vector<InferResult> results;
  results.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    Expected<InferResult>& element = *elements[b];
    if (!element.ok()) return element.status();
    results.push_back(std::move(element.value()));
    results.back().fault_report = reports[b];
    recovery_stats_ += reports[b];
  }
  CommitCalls(static_cast<std::uint64_t>(batch));
  committed_elements_ += static_cast<std::uint64_t>(batch);
  return results;
}

std::size_t DpeAccelerator::spares_available() const {
  return monitor_ ? monitor_->available_spares() : 0;
}

Status DpeAccelerator::InjectFault(std::size_t layer_index, std::size_t row,
                                   std::size_t col, device::CellFault fault) {
  if (layer_index >= mvm_layers_.size()) return OutOfRange("layer index");
  MappedMvmLayer& layer = mvm_layers_[layer_index];
  if (row >= layer.in_dim || col >= layer.out_dim) {
    return OutOfRange("cell coordinate outside the layer's weight matrix");
  }
  // Route the layer-global coordinate to the engine tile that owns it.
  for (EngineTile& tile : layer.tiles) {
    if (row < tile.row_offset || row >= tile.row_offset + tile.in ||
        col < tile.col_offset || col >= tile.col_offset + tile.out) {
      continue;
    }
    const std::size_t r = row - tile.row_offset;
    const std::size_t c = col - tile.col_offset;
    tile.engine.InjectCellFault(/*plane=*/0, r, c, fault);
    return Status::Ok();
  }
  return NotFound("no engine tile owns the requested cell");
}

}  // namespace cim::dpe
