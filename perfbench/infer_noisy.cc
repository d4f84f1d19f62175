// infer-noisy: closed-loop offline batches of DpeAccelerator::InferBatch on
// the 192-256-128-32 MLP with the default (noisy, bit-exact) device. The
// noisy analog kernel and the DPE tile loop carry nearly all host time.
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::dpe::DpeAccelerator;
using cim::dpe::InferResult;
using cim::nn::Tensor;

constexpr std::size_t kBatch = 8;
constexpr std::size_t kFixedBatches = 32;  // digested work
constexpr std::size_t kCheckBatches = 2;   // replayed at one thread
constexpr int kSetupReps = 5;

// DpeParams::Isaac keeps the default device: read-noise sigma 0.02 and the
// kFastBitExact kernel.
cim::dpe::DpeParams Params(std::size_t threads) {
  cim::dpe::DpeParams p = cim::dpe::DpeParams::Isaac();
  p.worker_threads = threads;
  return p;
}

// The chip (weights and their programming) is fixed; the seed only makes
// the inputs.
constexpr std::uint64_t kChipSeed = 0x1AFE2;

std::unique_ptr<DpeAccelerator> Create(const cim::nn::Network& net,
                                       std::size_t threads, Tracer& tracer) {
  auto span = tracer.Open("dpe.Create");
  auto acc = DpeAccelerator::Create(Params(threads), net, Rng(kChipSeed));
  CIM_CHECK(acc.ok());
  return std::move(acc.value());
}

std::vector<InferResult> RunBatch(DpeAccelerator& acc,
                                  std::span<const Tensor> batch,
                                  Digest* digest, Tracer& tracer,
                                  std::uint64_t* failed) {
  auto span = tracer.Open("dpe.InferBatch");
  auto results = acc.InferBatch(batch);
  if (!results.ok()) {
    *failed += batch.size();
    digest->Add(std::uint64_t{0xBAD});
    return {};
  }
  for (const InferResult& r : *results) {
    for (const double v : r.output.vec()) digest->Add(v);
    digest->Add(r.cost);
    digest->Add(r.fault_report.detected);
    digest->Add(r.fault_report.degraded);
    if (!Good(r)) ++*failed;
  }
  return std::move(*results);
}

}  // namespace

WorkloadReport RunInferNoisy(const RunOptions& options, Tracer& tracer) {
  const std::vector<std::size_t> widths = {192, 256, 128, 32};
  Rng net_rng(kChipSeed);
  const cim::nn::Network net =
      cim::nn::BuildMlp("infer-noisy", widths, net_rng, 0.16);
  const std::vector<Tensor> inputs = ConfidentInputs(
      net, widths.front(), kFixedBatches * kBatch, DeriveSeed(options.seed, 2));
  const auto batch = [&](std::size_t b) {
    return std::span<const Tensor>(
        inputs.data() + (b % kFixedBatches) * kBatch, kBatch);
  };

  WorkloadReport report;
  EndToEnd e2e;

  std::unique_ptr<DpeAccelerator> acc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    acc.reset();
    const double t0 = NowSeconds();
    acc = Create(net, kInferNoisyThreads, tracer);
    e2e.setup_s.push_back(NowSeconds() - t0);
  }

  const cim::ThreadPool* pool = acc->thread_pool();
  CIM_CHECK(pool != nullptr);
  std::vector<cim::ThreadPool::WorkerStats> before;
  for (std::size_t w = 0; w < pool->worker_count(); ++w) {
    before.push_back(pool->StatsOf(w));
  }

  // Rounds: one InferBatch each. The first kFixedBatches are the digested
  // fixed work; later rounds (cycling over the same inputs) only add timing
  // samples.
  Digest digest;
  std::vector<InferResult> fixed;
  std::size_t round = 0;
  const auto one_round = [&] {
    const std::size_t b = round++;
    Digest scratch;
    const bool digested = b < kFixedBatches;
    std::uint64_t failed = 0;
    auto results = RunBatch(*acc, batch(b), digested ? &digest : &scratch,
                            tracer, &failed);
    e2e.attempted += kBatch;
    e2e.unsuccessful += failed;
    if (digested) {
      for (InferResult& r : results) fixed.push_back(std::move(r));
      if (b + 1 == kCheckBatches) report.check_digest = digest.Hex();
    }
    return static_cast<double>(kBatch - failed);
  };
  const double timed_start = NowSeconds();
  std::vector<double> traced_rates;
  e2e.items_per_s =
      TimeRounds(options.seconds, kFixedBatches, [] {}, one_round,
                 options.trace ? &tracer : nullptr, &traced_rates);
  const double timed_s = NowSeconds() - timed_start;
  double busy_ns = 0.0;
  std::uint64_t tasks = 0;
  for (std::size_t w = 0; w < pool->worker_count(); ++w) {
    busy_ns += pool->StatsOf(w).busy_ns - before[w].busy_ns;
    tasks += pool->StatsOf(w).tasks - before[w].tasks;
  }
  report.digest = digest.Hex();
  report.fixed_items = kFixedBatches * kBatch;
  report.attempted = e2e.attempted;
  report.failed = e2e.unsuccessful;

  std::size_t agree = 0;
  double energy = 0.0;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const InferResult& r = fixed[i];
    auto golden = cim::nn::Forward(net, inputs[i]);
    CIM_CHECK(golden.ok());
    if (ArgMax(golden->vec()) == ArgMax(r.output.vec())) ++agree;
    e2e.model_latency_ns.push_back(r.cost.latency_ns);
    energy += r.cost.energy_pj;
  }
  const double n = static_cast<double>(fixed.size());
  e2e.top1_agreement = static_cast<double>(agree) / n;
  e2e.model_energy_pj_per_item = energy / n;
  // One accelerator issuing inferences back to back.
  e2e.max_rate_rps = 1e9 / Median(e2e.model_latency_ns);
  MetricMap e2e_metrics = EndToEndMetrics(e2e);

  // The same first batches on a serial accelerator must digest the same.
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
  const std::vector<double> mvm_us = AddLayerProbes(nullptr, 64, &m);
  const std::vector<double> batch_us = tracer.DurationsUs("dpe.InferBatch");
  m["dpe.create_ms"] = {Median(tracer.DurationsUs("dpe.Create")) * 1e-3,
                        "ms"};
  m["dpe.infer_batch_ms.p50"] = {Quantile(batch_us, 0.5) * 1e-3, "ms"};
  m["dpe.infer_batch_ms.p90"] = {Quantile(batch_us, 0.9) * 1e-3, "ms"};
  m["dpe.pool.busy_fraction"] = {
      busy_ns / (static_cast<double>(pool->worker_count()) * timed_s * 1e9),
      "fraction"};
  m["dpe.pool.tasks"] = {
      static_cast<double>(tasks) / static_cast<double>(round), "count"};
  m["dpe.arrays_used"] = {static_cast<double>(acc->arrays_used()), "count"};
  const cim::dpe::DpeParams params = Params(1);
  const TileCount tiles =
      CountTiles(widths, params.array.rows, params.array.cols, false);
  m["crossbar.mvm_calls"] = {static_cast<double>(kBatch * tiles.tiles),
                             "count"};
  m["crossbar.share_est"] = {
      static_cast<double>(kBatch) * tiles.equivalents * mvm_us[0] /
          (static_cast<double>(kInferNoisyThreads) * Quantile(batch_us, 0.5)),
      "fraction"};
  m["trace.overhead_fraction"] = {
      TraceOverhead(e2e.items_per_s, traced_rates), "fraction"};
  return report;
}

}  // namespace perfbench
