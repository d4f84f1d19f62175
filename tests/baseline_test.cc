// Tests for the von Neumann baselines and the §VI comparison invariants.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/cpu_model.h"
#include "baseline/gpu_model.h"
#include "baseline/pim_model.h"
#include "common/rng.h"
#include "common/units.h"
#include "dpe/analytical.h"
#include "dpe/engine_adapter.h"

namespace cim::baseline {
namespace {

TEST(CpuModelTest, ParamsValidated) {
  CpuParams p;
  p.peak_gflops = 0.0;
  CpuModel model(p);
  Rng rng(1);
  EXPECT_FALSE(
      model.EstimateInference(nn::BuildMlp("m", {8, 4}, rng)).ok());
}

TEST(CpuModelTest, CostScalesWithNetwork) {
  CpuModel model;
  Rng rng(2);
  auto small = model.EstimateInference(nn::BuildMlp("s", {64, 32}, rng));
  auto large =
      model.EstimateInference(nn::BuildMlp("l", {2048, 4096, 1024}, rng));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->latency_ns, small->latency_ns);
  EXPECT_GT(large->energy_pj, small->energy_pj);
  EXPECT_GT(large->macs, small->macs);
}

TEST(CpuModelTest, CacheResidentModelAvoidsDram) {
  CpuModel model;
  Rng rng(3);
  // ~8 KB of weights: far below L3.
  auto tiny = model.EstimateInference(nn::BuildMlp("t", {32, 32, 16}, rng));
  ASSERT_TRUE(tiny.ok());
  EXPECT_DOUBLE_EQ(tiny->dram_bytes, 0.0);
  // ~80 MB of weights: far above L3, streams every inference.
  auto big =
      model.EstimateInference(nn::BuildMlp("b", {4096, 4096, 1024}, rng));
  ASSERT_TRUE(big.ok());
  EXPECT_GT(big->dram_bytes, 1e7);
}

TEST(CpuModelTest, MemoryBoundWhenWeightsExceedCache) {
  // The Fig 2 wall: for a big batch-1 MLP the CPU's latency approaches the
  // DRAM streaming time, not the compute time.
  CpuModel model;
  Rng rng(4);
  const nn::Network net = nn::BuildMlp("big", {4096, 4096, 1024}, rng);
  auto cost = model.EstimateInference(net);
  ASSERT_TRUE(cost.ok());
  const double stream_ns =
      cost->dram_bytes / model.params().dram_bandwidth_gbps;
  EXPECT_GT(cost->latency_ns, 0.9 * stream_ns);
}

TEST(GpuModelTest, LaunchOverheadDominatesTinyNetworks) {
  GpuModel model;
  Rng rng(5);
  const nn::Network net = nn::BuildMlp("tiny", {16, 16, 4}, rng);
  auto cost = model.EstimateInference(net);
  ASSERT_TRUE(cost.ok());
  // 2 layers x 5 us launches is nearly all of the latency.
  EXPECT_GT(2.0 * model.params().kernel_launch_ns, 0.8 * cost->latency_ns);
}

TEST(GpuModelTest, UtilizationImprovesWithSize) {
  GpuModel model;
  Rng rng(6);
  auto small = model.EstimateInference(nn::BuildMlp("s", {128, 128}, rng));
  auto large =
      model.EstimateInference(nn::BuildMlp("l", {4096, 4096}, rng));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // Time per MAC falls as the layer fills the machine.
  const double small_per_mac =
      small->latency_ns / static_cast<double>(small->macs);
  const double large_per_mac =
      large->latency_ns / static_cast<double>(large->macs);
  EXPECT_LT(large_per_mac, small_per_mac);
}

TEST(ComparisonTest, Section6OrderingHoldsOnCacheBustingMlp) {
  // §VI shape on a model whose weights exceed the CPU caches (the regime
  // the paper's big ratios come from): DPE latency and energy beat the CPU
  // by orders of magnitude; the GPU sits between; DPE effective weight
  // bandwidth crushes the CPU.
  Rng rng(7);
  const nn::Network net = nn::BuildMlp("big", {4096, 4096, 1024}, rng);
  CpuModel cpu;
  GpuModel gpu;
  dpe::AnalyticalDpeModel dpe_model;
  auto cpu_cost = cpu.EstimateInference(net);
  auto gpu_cost = gpu.EstimateInference(net);
  auto dpe_cost = dpe_model.EstimateInference(net);
  ASSERT_TRUE(cpu_cost.ok());
  ASSERT_TRUE(gpu_cost.ok());
  ASSERT_TRUE(dpe_cost.ok());

  // Latency: DPE wins by >= 10x over CPU (paper: 10..1e4) and by a smaller
  // factor over the GPU (paper: 10..1e2).
  EXPECT_GT(cpu_cost->latency_ns / dpe_cost->latency_ns, 10.0);
  EXPECT_GT(gpu_cost->latency_ns / dpe_cost->latency_ns, 10.0);
  EXPECT_LT(gpu_cost->latency_ns, cpu_cost->latency_ns);
  // Energy: DPE wins by >= 100x over CPU (paper power claim: 1e3..1e6).
  EXPECT_GT(cpu_cost->energy_pj / dpe_cost->energy_pj, 100.0);
  // Weight bandwidth: DPE >= 1000x the CPU's effective bandwidth.
  EXPECT_GT(dpe_cost->effective_weight_bandwidth_gbps() /
                cpu_cost->weight_bandwidth_gbps(),
            1000.0);
  // GPU lands between CPU and DPE on energy.
  EXPECT_LT(gpu_cost->energy_pj, cpu_cost->energy_pj);
  EXPECT_GT(gpu_cost->energy_pj, dpe_cost->energy_pj);
}

TEST(PimModelTest, ParamsValidated) {
  PimParams p;
  p.peak_gflops = 0.0;
  PimModel model(p);
  Rng rng(9);
  EXPECT_FALSE(model.EstimateInference(nn::BuildMlp("m", {8, 4}, rng)).ok());
}

TEST(PimModelTest, OnlyActivationsCrossThePackage) {
  // The defining PIM property: weights stay bank-local; external traffic
  // is inputs + outputs only.
  PimModel model;
  Rng rng(10);
  const nn::Network net = nn::BuildMlp("m", {1024, 2048, 64}, rng);
  auto cost = model.EstimateInference(net);
  ASSERT_TRUE(cost.ok());
  EXPECT_LT(cost->dram_bytes, 16384.0);  // activations, not megabytes
  EXPECT_GT(cost->energy_pj, 0.0);
}

TEST(PimModelTest, SitsBetweenCpuAndDpe) {
  // §I / §II.E: near-memory PIM beats the CPU on memory-bound inference
  // but the CIM crossbars beat PIM — the ordering the paper's CIM-vs-PIM
  // distinction rests on.
  Rng rng(11);
  const nn::Network net = nn::BuildMlp("big", {4096, 4096, 1024}, rng);
  CpuModel cpu;
  PimModel pim;
  dpe::AnalyticalDpeModel dpe_model;
  auto c = cpu.EstimateInference(net);
  auto p = pim.EstimateInference(net);
  auto d = dpe_model.EstimateInference(net);
  ASSERT_TRUE(c.ok() && p.ok() && d.ok());
  EXPECT_LT(p->latency_ns, c->latency_ns);
  EXPECT_GT(p->latency_ns, d->latency_ns);
  EXPECT_LT(p->energy_pj, c->energy_pj);
  EXPECT_GT(p->energy_pj, d->energy_pj);
}

TEST(ComparisonTest, DpeAdvantageGrowsWithModelSize) {
  // The paper's "10 to 1e4" latency range is a size sweep: small cache-
  // resident models give small wins, cache-busting ones give huge wins.
  Rng rng(8);
  CpuModel cpu;
  dpe::AnalyticalDpeModel dpe_model;
  const nn::Network small = nn::BuildMlp("s", {784, 256, 128, 10}, rng);
  const nn::Network large = nn::BuildMlp("l", {4096, 4096, 1024}, rng);
  auto cpu_small = cpu.EstimateInference(small);
  auto cpu_large = cpu.EstimateInference(large);
  auto dpe_small = dpe_model.EstimateInference(small);
  auto dpe_large = dpe_model.EstimateInference(large);
  ASSERT_TRUE(cpu_small.ok() && cpu_large.ok());
  ASSERT_TRUE(dpe_small.ok() && dpe_large.ok());
  const double small_ratio = cpu_small->latency_ns / dpe_small->latency_ns;
  const double large_ratio = cpu_large->latency_ns / dpe_large->latency_ns;
  EXPECT_GT(small_ratio, 1.0);  // DPE still wins on small models
  EXPECT_GT(large_ratio, 10.0 * small_ratio);  // and dominates large ones
}

TEST(EngineCostTest, UnitConversionsPinned) {
  EngineCost cost;
  cost.latency_ns = 1000.0;
  cost.energy_pj = 2000.0;
  cost.dram_bytes = 8000.0;
  // 2000 pJ over 1000 ns = 2 pJ/ns = 2 mW = 2e-3 W.
  EXPECT_DOUBLE_EQ(
      AveragePowerWatts(EnergyPj(cost.energy_pj), TimeNs(cost.latency_ns)),
      2e-3);
  // 8000 bytes over 1000 ns = 8 bytes/ns = 8e9 bytes/s = 8 GB/s
  // (gigabytes, not gigabits).
  EXPECT_DOUBLE_EQ(cost.weight_bandwidth_gbps(), 8.0);

  EngineCost idle;  // zero latency must not divide by zero
  idle.energy_pj = 5.0;
  idle.dram_bytes = 5.0;
  EXPECT_DOUBLE_EQ(
      AveragePowerWatts(EnergyPj(idle.energy_pj), TimeNs(idle.latency_ns)),
      0.0);
  EXPECT_DOUBLE_EQ(idle.weight_bandwidth_gbps(), 0.0);
}

TEST(DpeEngineAdapterTest, SpeaksTheCommonEngineInterface) {
  Rng rng(9);
  const nn::Network net = nn::BuildMlp("a", {64, 32, 8}, rng);
  // Through the base pointer, like the §VI benches iterate it.
  const std::unique_ptr<ComputeEngine> engine =
      std::make_unique<dpe::DpeEngine>();
  EXPECT_EQ(engine->name(), "dpe");
  auto cost = engine->EstimateInference(net);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->latency_ns, 0.0);
  EXPECT_GT(cost->energy_pj, 0.0);
  EXPECT_EQ(cost->macs, net.TotalMacs());
  // Weights are resident: only input + output activations cross the memory
  // interface (1 byte each at 8-bit precision).
  EXPECT_DOUBLE_EQ(cost->dram_bytes, 64.0 + 8.0);
  // The adapter folds the same estimate the analytical model reports.
  dpe::AnalyticalDpeModel model;
  auto estimate = model.EstimateInference(net);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(cost->latency_ns, estimate->latency_ns);
  EXPECT_DOUBLE_EQ(cost->energy_pj, estimate->energy_pj);
}

}  // namespace
}  // namespace cim::baseline
