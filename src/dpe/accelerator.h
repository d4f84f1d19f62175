// Behavioural DPE accelerator: actually executes a network on simulated
// analog crossbars (tiled MvmEngines per layer, digital bias/activation,
// im2col convolution). Slow but faithful — used for small networks, for
// accuracy experiments (quantization + analog error vs the float golden
// model), and to validate the analytical model's cost accounting.
//
// The inference runtime is batched and multi-threaded: independent engine
// tiles (and independent batch elements in InferBatch) execute concurrently
// on a host thread pool, mirroring how the modeled hardware fires all
// crossbars at once. Every MVM invocation draws its read noise from a
// stream derived from (root seed, tile index, call index), and partial
// sums / cost reports are merged in fixed tile order after each parallel
// region — so outputs and costs are bit-identical at any thread count, and
// InferBatch(N inputs) is bit-identical to N sequential Infer calls.
//
// Fault tolerance (§V.A, params.fault_tolerance): each tile MVM is checked
// at the tile boundary — an ABFT guard column inside the engine plus a
// checksum over the partial-sum transfer. A detected-bad tile is retried
// (fresh noise stream; transients do not recur), and a persistently bad or
// dead tile degrades the element gracefully: its partial contribution is
// flagged in InferResult::fault_report instead of poisoning the batch. At
// wave boundaries — the single-threaded gaps between parallel regions —
// flagged tiles are reprogrammed onto pre-provisioned spares and the aging
// monitor retires worn tiles proactively. Structural fault injection
// (AttachFaultInjector) fires at the same boundaries, so recovery decisions
// stay a pure function of (seed, scenario, batch shape): unaffected
// elements remain bit-identical to a fault-free run at every thread count.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "crossbar/mvm_engine.h"
#include "dpe/params.h"
#include "nn/network.h"
#include "reliability/aging_monitor.h"
#include "reliability/fault_injector.h"

namespace cim::dpe {

// One inference's recovery outcome (§V.A): how many tile MVMs were flagged
// at a boundary, how many re-executions ran, and how many tile results were
// accepted degraded (retries exhausted, or a dead tile contributing zeros).
// clean() elements are bit-identical to a fault-free run.
struct ElementFaultReport {
  std::uint64_t detected = 0;
  std::uint64_t retried = 0;
  std::uint64_t degraded = 0;

  [[nodiscard]] bool clean() const { return detected == 0 && degraded == 0; }
  ElementFaultReport& operator+=(const ElementFaultReport& other) {
    detected += other.detected;
    retried += other.retried;
    degraded += other.degraded;
    return *this;
  }
};

// An accelerator's recovery activity since Create: every element's counts,
// plus the tiles remapped onto spares. A remap is a tile operation done at a
// wave boundary, not an element's, so only this aggregate counts it.
struct FaultReport : ElementFaultReport {
  std::uint64_t remapped = 0;
};

// One inference's output together with its fully accounted cost — the same
// pairing crossbar::MvmResult uses one layer down.
struct InferResult {
  nn::Tensor output;
  CostReport cost;
  ElementFaultReport fault_report;
  // The share of `cost` attributable to interconnect traffic. Zero for a
  // lone accelerator; fabric::FabricCoSim fills it in (and folds it into
  // `cost`) when inter-tile activations ride the mesh NoC.
  CostReport noc_cost;
};

class DpeAccelerator {
 public:
  // Programs all layer weights onto crossbars (the slow write path).
  [[nodiscard]] static Expected<std::unique_ptr<DpeAccelerator>> Create(
      const DpeParams& params, const nn::Network& net, Rng rng);

  // Batch-1 inference: InferBatch of one input. Engine tiles within each
  // layer run through the pool's ParallelFor (params.worker_threads).
  [[nodiscard]] Expected<InferResult> Infer(const nn::Tensor& input);

  // Batched inference: batch elements run through the pool's ParallelFor,
  // and each element's tile loop runs inline inside it.
  // Outputs and per-element costs are bit-identical to calling Infer once
  // per input in order, at any thread count. With an armed fault injector
  // the batch is split into waves at structural fault steps; elements
  // before the first fired fault stay bit-identical to a fault-free run.
  [[nodiscard]] Expected<std::vector<InferResult>> InferBatch(
      std::span<const nn::Tensor> inputs);

  [[nodiscard]] const CostReport& program_cost() const {
    return program_cost_;
  }
  [[nodiscard]] std::size_t arrays_used() const { return arrays_used_; }
  // The pool executing tile/batch work; never null. It has no workers when
  // worker_threads == 1, and ParallelFor then runs on the caller.
  [[nodiscard]] const ThreadPool* thread_pool() const { return &pool_; }

  // Register this accelerator's layers as injection targets named
  // "dpe.layer<k>" (k = mvm-layer index). The injector must outlive the
  // accelerator. Call injector->Arm() afterwards; structural specs then
  // fire at wave boundaries keyed on the global element step.
  Status AttachFaultInjector(reliability::FaultInjector* injector);

  // Fault-injection hook: flip the logical cell (row, col) — coordinates
  // global to the layer's weight matrix — in every bit-slice array of the
  // owning engine tile's positive plane (a physical crosspoint defect).
  Status InjectFault(std::size_t layer_index, std::size_t row,
                     std::size_t col, device::CellFault fault);

  // Aggregate recovery activity since Create (all elements, all batches).
  [[nodiscard]] const FaultReport& recovery_stats() const {
    return recovery_stats_;
  }
  // Reprogramming cost of every tile->spare remap so far; the §VI write
  // asymmetry is what makes remap expensive and retry worth attempting.
  [[nodiscard]] const CostReport& recovery_cost() const {
    return recovery_cost_;
  }
  [[nodiscard]] std::size_t spares_available() const;
  // Aging-monitor view (null when fault tolerance is disabled).
  [[nodiscard]] const reliability::AgingMonitor* aging_monitor() const {
    return monitor_ ? &*monitor_ : nullptr;
  }

 private:
  // Mutable per-tile recovery state, shared across worker threads; heap-
  // allocated so EngineTile stays movable. Allocated only when fault
  // tolerance is enabled.
  struct TileFtState {
    std::atomic<bool> dead{false};
    std::atomic<bool> needs_remap{false};
    std::atomic<std::uint64_t> guard_checks{0};
    std::atomic<std::uint64_t> guard_failures{0};
    // Telemetry high-water marks from the last boundary drain.
    std::uint64_t drained_write_attempts = 0;
    std::uint64_t drained_verify_failures = 0;
    std::uint64_t drained_guard_checks = 0;
    std::uint64_t drained_guard_failures = 0;
  };
  struct EngineTile {
    crossbar::MvmEngine engine;
    std::size_t row_offset;  // input slice start
    std::size_t col_offset;  // output slice start
    std::size_t in;
    std::size_t out;
    // Root of this tile's noise-stream family: DeriveSeed(root_seed, tile
    // index). Each MVM invocation k on this tile draws from
    // Rng(DeriveSeed(noise_seed, k)).
    std::uint64_t noise_seed = 0;
    // Fault-tolerance state (engaged only when fault_tolerance.enabled).
    // base_seed is the stable family root; after a remap the replacement
    // engine reseeds from (base_seed, generation), never from spare claim
    // order, so recovery stays deterministic.
    std::uint64_t base_seed = 0;
    std::uint32_t generation = 0;
    std::uint32_t unit_id = 0;  // aging-monitor unit
    std::vector<double> submatrix;  // retained for remap reprogramming
    std::unique_ptr<TileFtState> ft;
  };
  struct MappedMvmLayer {
    std::vector<EngineTile> tiles;
    std::size_t in_dim;
    std::size_t out_dim;
    // Injection-target name ("dpe.layer<k>"), precomputed so the hot path
    // never formats strings.
    std::string target;
    // MVM invocations one inference makes on this layer (1 for dense,
    // oh*ow pixels for conv) — the stride between batch elements in the
    // per-tile call numbering.
    std::uint64_t calls_per_inference = 1;
    // Calls already consumed by completed Infer/InferBatch requests.
    std::uint64_t committed_calls = 0;
  };
  DpeAccelerator(const DpeParams& params, const nn::Network& net);

  // Split an (in_dim x out_dim) matrix over crossbar-sized engine tiles.
  Status MapMatrix(std::span<const double> matrix, std::size_t in_dim,
                   std::size_t out_dim, Rng& rng, MappedMvmLayer* mapped);

  // Run one tiled MVM for call number `stream_offset` (relative to the
  // layer's committed_calls); returns out_dim partial sums (bias not
  // applied) plus the MVM's cost (latency = slowest tile, the tiles fire
  // concurrently in hardware). Tiles run through the pool's ParallelFor
  // (inline when called from a batch-element loop); the merge is serial in
  // tile order either way — which is also where tile-boundary detection
  // and retry run — so results never depend on scheduling. `element_step`
  // is the global batch-element index (transient-fault keying); `report`
  // collects the element's recovery counts.
  Expected<crossbar::MvmResult> RunMvm(const MappedMvmLayer& mapped,
                                       std::span<const double> x,
                                       std::uint64_t stream_offset,
                                       std::uint64_t element_step,
                                       ElementFaultReport* report);

  // Whole-network forward pass for one batch element. `element_index`
  // offsets every layer's noise-stream numbering by
  // element_index * calls_per_inference; callers commit the consumed calls
  // afterwards via CommitCalls.
  Expected<InferResult> RunElement(const nn::Tensor& input,
                                   std::uint64_t element_index,
                                   ElementFaultReport* report);

  void CommitCalls(std::uint64_t elements);

  // Single-threaded wave-boundary recovery: drain write/guard telemetry
  // into the aging monitor, evaluate proactive retirement, and reprogram
  // flagged tiles onto spares. A no-op without fault tolerance.
  void RecoverAtBoundary();

  // Reprogram one tile onto a fresh engine (spare claim already done).
  Status RemapTile(EngineTile& tile, std::uint32_t spare_unit);

  [[nodiscard]] bool ft_enabled() const {
    return params_.fault_tolerance.enabled;
  }

  DpeParams params_;
  nn::Network net_;
  std::vector<nn::LayerProfile> profiles_;  // one per net_ layer
  std::vector<MappedMvmLayer> mvm_layers_;  // one per dense/conv layer
  CostReport program_cost_;
  std::size_t arrays_used_ = 0;
  std::uint64_t root_seed_ = 0;
  std::uint64_t next_tile_index_ = 0;  // used during Create only
  ThreadPool pool_;

  // Fault-tolerance machinery (engaged when params_.fault_tolerance.enabled).
  reliability::FaultInjector* injector_ = nullptr;  // not owned
  std::optional<reliability::AgingMonitor> monitor_;
  std::uint64_t committed_elements_ = 0;  // global element step counter
  FaultReport recovery_stats_;
  CostReport recovery_cost_;
};

}  // namespace cim::dpe
