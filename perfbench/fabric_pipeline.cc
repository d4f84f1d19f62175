// fabric-pipeline: fabric::FabricCoSim on a 4x4 tile grid (4 pipeline
// stages x 4 column splits of a 64-96-96-96-48 MLP) with quiet devices.
// The quiet bit-exact kernel is cheap, so the epoch barrier, the
// tile-parallel ParallelFor, packet minting and the owned-burst NoC path
// carry the host time.
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "fabric/cosim.h"
#include "nn/network.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::dpe::InferResult;
using cim::fabric::FabricCoSim;
using cim::nn::Tensor;

constexpr std::uint16_t kGrid = 4;
constexpr std::size_t kSplits = 4;
constexpr std::size_t kBatch = 32;        // elements pipelined per call
constexpr std::size_t kFixedBatches = 16;  // digested work
constexpr std::size_t kCheckBatches = 2;  // replayed at one thread
constexpr int kSetupReps = 5;
// The chip (weights and their programming) is fixed; the seed only makes
// the inputs.
constexpr std::uint64_t kChipSeed = 0xFAB0;

std::unique_ptr<FabricCoSim> Create(const cim::nn::Network& net,
                                    std::size_t threads, Tracer& tracer) {
  cim::fabric::FabricParams p;
  p.partition.grid_width = kGrid;
  p.partition.grid_height = kGrid;
  p.partition.column_splits = kSplits;
  p.dpe.array.cell.read_noise_sigma = 0.0;  // quiet devices
  p.worker_threads = threads;
  p.seed = kChipSeed;
  auto span = tracer.Open("fabric.Create");
  auto fabric = FabricCoSim::Create(p, net);
  CIM_CHECK(fabric.ok());
  return std::move(fabric.value());
}

void AddTelemetry(const FabricCoSim& fabric, Digest* d) {
  const cim::noc::NocTelemetry& t = fabric.noc_telemetry();
  d->Add(t.injected);
  d->Add(t.delivered);
  d->Add(t.dropped);
  d->Add(t.rerouted_hops);
  d->Add(t.cost);
  d->Add(t.latency_ns.mean());
  d->Add(t.latency_ns.max());
  d->Add(fabric.now().ns);
  d->Add(fabric.epochs_run());
}

// Runs one batch, folding its outputs, costs and NoC telemetry into `digest`.
std::vector<InferResult> RunBatch(FabricCoSim& fabric,
                                  std::span<const Tensor> batch,
                                  Digest* digest, Tracer& tracer,
                                  std::uint64_t* failed) {
  auto span = tracer.Open("fabric.InferBatch");
  auto results = fabric.InferBatch(batch);
  if (!results.ok()) {
    *failed += batch.size();
    digest->Add(std::uint64_t{0xBAD});
    return {};
  }
  for (const InferResult& r : *results) {
    for (const double v : r.output.vec()) digest->Add(v);
    digest->Add(r.cost);
    digest->Add(r.noc_cost);
    digest->Add(r.fault_report.detected);
    digest->Add(r.fault_report.degraded);
    if (!Good(r)) ++*failed;
  }
  AddTelemetry(fabric, digest);
  return std::move(*results);
}

// The packets FabricCoSim mints for one batch: per epoch, every element
// leaving stage s sends its split's slice to every split of stage s + 1.
NocPattern Pattern(const cim::fabric::FabricPlan& plan) {
  NocPattern pattern;
  pattern.width = kGrid;
  pattern.height = kGrid;
  pattern.owned_bursts = true;
  const std::size_t S = plan.stage_count;
  const std::size_t K = plan.splits_per_stage;
  for (std::size_t e = 0; e < kBatch + S - 1; ++e) {
    NocPattern::Window burst;
    for (std::size_t s = 0; s + 1 < S && s <= e; ++s) {
      const std::size_t b = e - s;
      if (b >= kBatch) continue;
      for (std::size_t src = 0; src < K; ++src) {
        const std::size_t doubles = plan.tile(s, src).out_count;
        for (std::size_t dst = 0; dst < K; ++dst) {
          cim::noc::Packet p;
          p.id = ((b * S + s) * K + src) * K + dst;
          p.stream_id = b;
          p.source = plan.tile(s, src).node;
          p.destination = plan.tile(s + 1, dst).node;
          p.qos = cim::noc::QosClass::kBulk;
          p.payload_bytes = static_cast<std::uint32_t>(doubles * 8);
          p.inline_payload.resize(doubles * sizeof(double));
          burst.packets.push_back(std::move(p));
        }
      }
    }
    if (!burst.packets.empty()) pattern.windows.push_back(std::move(burst));
  }
  return pattern;
}

}  // namespace

WorkloadReport RunFabricPipeline(const RunOptions& options, Tracer& tracer) {
  const std::vector<std::size_t> widths = {64, 96, 96, 96, 48};
  Rng net_rng(kChipSeed);
  const cim::nn::Network net =
      cim::nn::BuildMlp("fabric-pipeline", widths, net_rng, 0.4);
  const std::vector<Tensor> inputs = ConfidentInputs(
      net, widths.front(), kFixedBatches * kBatch, DeriveSeed(options.seed, 2));
  const auto batch = [&](std::size_t b) {
    return std::span<const Tensor>(
        inputs.data() + (b % kFixedBatches) * kBatch, kBatch);
  };

  WorkloadReport report;
  EndToEnd e2e;

  std::unique_ptr<FabricCoSim> fabric;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fabric.reset();
    const double t0 = NowSeconds();
    fabric = Create(net, kFabricPipelineThreads, tracer);
    e2e.setup_s.push_back(NowSeconds() - t0);
  }

  // Rounds: one pipelined InferBatch each. The first kFixedBatches are the
  // digested fixed work; later rounds only add timing samples.
  Digest digest;
  std::vector<InferResult> fixed;
  std::size_t round = 0;
  const double virtual_start = fabric->now().ns;
  double virtual_fixed = 0.0;
  cim::noc::NocTelemetry fixed_noc;
  const auto one_round = [&] {
    const std::size_t b = round++;
    Digest scratch;
    const bool digested = b < kFixedBatches;
    std::uint64_t failed = 0;
    auto results = RunBatch(*fabric, batch(b), digested ? &digest : &scratch,
                            tracer, &failed);
    e2e.attempted += kBatch;
    e2e.unsuccessful += failed;
    if (digested) {
      for (InferResult& r : results) fixed.push_back(std::move(r));
      if (b + 1 == kCheckBatches) report.check_digest = digest.Hex();
      if (b + 1 == kFixedBatches) {
        virtual_fixed = fabric->now().ns;
        fixed_noc = fabric->noc_telemetry();
      }
    }
    return static_cast<double>(kBatch - failed);
  };
  std::vector<double> traced_rates;
  e2e.items_per_s =
      TimeRounds(options.seconds, kFixedBatches, [] {}, one_round,
                 options.trace ? &tracer : nullptr, &traced_rates);
  report.digest = digest.Hex();
  report.fixed_items = kFixedBatches * kBatch;
  report.attempted = e2e.attempted;
  report.failed = e2e.unsuccessful;

  std::size_t agree = 0;
  double energy = 0.0, noc_energy = 0.0, latency = 0.0, noc_latency = 0.0;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const InferResult& r = fixed[i];
    auto golden = cim::nn::Forward(net, inputs[i]);
    CIM_CHECK(golden.ok());
    if (ArgMax(golden->vec()) == ArgMax(r.output.vec())) ++agree;
    e2e.model_latency_ns.push_back(r.cost.latency_ns);
    energy += r.cost.energy_pj;
    noc_energy += r.noc_cost.energy_pj;
    latency += r.cost.latency_ns;
    noc_latency += r.noc_cost.latency_ns;
  }
  const double n = static_cast<double>(fixed.size());
  e2e.top1_agreement = static_cast<double>(agree) / n;
  e2e.model_energy_pj_per_item = energy / n;
  // Pipelined throughput of the modelled fabric over the fixed work.
  e2e.max_rate_rps = n / ((virtual_fixed - virtual_start) * 1e-9);
  MetricMap e2e_metrics = EndToEndMetrics(e2e);

  // The same first batches on a serial co-simulation must digest the same.
  tracer.set_enabled(false);
  {
    auto serial = Create(net, 1, tracer);
    Digest serial_digest;
    std::uint64_t failed = 0;
    for (std::size_t b = 0; b < kCheckBatches; ++b) {
      (void)RunBatch(*serial, batch(b), &serial_digest, tracer, &failed);
    }
    report.check_digest_replay = serial_digest.Hex();
  }
  tracer.set_enabled(true);

  if (!options.trace) {
    report.metrics = std::move(e2e_metrics);
    return report;
  }
  MetricMap& m = report.metrics;
  const NocPattern pattern = Pattern(fabric->plan());
  const std::vector<double> mvm_us = AddLayerProbes(&pattern, 64, &m);
  const std::vector<double> batch_us = tracer.DurationsUs("fabric.InferBatch");
  const double epochs_per_batch =
      static_cast<double>(kBatch + fabric->plan().stage_count - 1);
  m["fabric.create_ms"] = {
      Median(tracer.DurationsUs("fabric.Create")) * 1e-3, "ms"};
  m["fabric.infer_batch_ms.p50"] = {Quantile(batch_us, 0.5) * 1e-3, "ms"};
  m["fabric.epochs"] = {epochs_per_batch, "count"};
  m["fabric.epoch_us"] = {Quantile(batch_us, 0.5) / epochs_per_batch, "us"};
  m["fabric.noc_latency_share"] = {noc_latency / latency, "fraction"};
  m["fabric.noc_energy_share"] = {noc_energy / energy, "fraction"};
  // NoC counters of the fixed work.
  const cim::noc::NocTelemetry& t = fixed_noc;
  m["noc.injected"] = {static_cast<double>(t.injected), "count"};
  m["noc.delivered"] = {static_cast<double>(t.delivered), "count"};
  m["noc.dropped"] = {static_cast<double>(t.dropped), "count"};
  m["noc.rerouted_hops"] = {static_cast<double>(t.rerouted_hops), "count"};
  m["noc.delivered_fraction"] = {
      static_cast<double>(t.delivered) / static_cast<double>(t.injected),
      "fraction"};
  m["noc.latency_ns.mean"] = {t.latency_ns.mean(), "model_ns"};
  m["noc.latency_ns.max"] = {t.latency_ns.max(), "model_ns"};
  // Every tile holds one dense slice (in <= 96, out <= 24): one MVM per
  // element, driving in x out of the 128 x 128 array.
  const cim::fabric::FabricPlan& plan = fabric->plan();
  double equivalents = 0.0;
  for (const cim::fabric::TileSpec& tile : plan.tiles) {
    equivalents += static_cast<double>(widths[tile.stage] * tile.out_count) /
                   (128.0 * 128.0);
  }
  m["crossbar.mvm_calls"] = {static_cast<double>(plan.tiles.size() * kBatch),
                             "count"};
  m["crossbar.share_est"] = {
      static_cast<double>(kBatch) * equivalents * mvm_us[1] /
          (static_cast<double>(kFabricPipelineThreads) *
           Quantile(batch_us, 0.5)),
      "fraction"};
  m["trace.overhead_fraction"] = {
      TraceOverhead(e2e.items_per_s, traced_rates), "fraction"};
  return report;
}

}  // namespace perfbench
