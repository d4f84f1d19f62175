// Fault-tolerant DPE inference (§V.A): scenario-driven fault injection,
// tile-boundary detection, and retry/remap/degrade recovery.
//
// The centerpiece is a chaos test — a tile dies and a stuck-at cluster
// lands mid-InferBatch — that must hold the determinism contract: the
// batch still succeeds, elements before the first fault stay bit-identical
// to a fault-free run at every thread count, affected elements carry
// accurate fault reports, and the same seed replays an identical FaultLog.
// Labeled "fault" (ctest -L fault; sanitizer CI legs) and "concurrency"
// (the tsan preset runs it under ThreadSanitizer).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dpe/accelerator.h"
#include "nn/network.h"
#include "reliability/fault_injector.h"

namespace cim::dpe {
namespace {

using reliability::FaultInjector;
using reliability::FaultKind;
using reliability::FaultScenario;
using reliability::FaultSpec;
using reliability::InjectionHooks;

DpeParams FtParams(std::size_t worker_threads, std::size_t spares = 2) {
  DpeParams p = DpeParams::Isaac();
  p.array.cell.read_noise_sigma = 0.02;  // noise streams stay deterministic
  p.worker_threads = worker_threads;
  p.fault_tolerance.enabled = true;
  p.fault_tolerance.spare_tiles = spares;
  return p;
}

std::vector<nn::Tensor> MakeInputs(const std::vector<std::size_t>& shape,
                                   std::size_t count, Rng& rng) {
  std::vector<nn::Tensor> inputs;
  for (std::size_t b = 0; b < count; ++b) {
    nn::Tensor t(shape);
    for (auto& v : t.vec()) v = rng.Uniform(0.0, 1.0);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

void ExpectBitIdentical(const InferResult& a, const InferResult& b) {
  ASSERT_EQ(a.output.size(), b.output.size());
  for (std::size_t i = 0; i < a.output.size(); ++i) {
    EXPECT_EQ(a.output[i], b.output[i]) << "output " << i;
  }
  EXPECT_EQ(a.cost.latency_ns, b.cost.latency_ns);
  EXPECT_EQ(a.cost.energy_pj, b.cost.energy_pj);
  EXPECT_EQ(a.cost.operations, b.cost.operations);
}

// The chaos scenario: a 24-cell stuck-on cluster strikes layer 0 before
// element 2, and layer 1's only tile dies before element 4. Both layers
// are single-tile at this network size, so the blast radius is exact.
FaultScenario ChaosScenario() {
  FaultScenario scenario;
  scenario.seed = 99;
  FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 2;
  cluster.tile = 0;
  cluster.cells = 24;
  cluster.row = 3;
  cluster.col = 5;
  scenario.specs.push_back(cluster);
  FaultSpec death;
  death.kind = FaultKind::kTileDeath;
  death.target = "dpe.layer1";
  death.at_step = 4;
  death.tile = 0;
  scenario.specs.push_back(death);
  return scenario;
}

class ChaosMidBatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaosMidBatch, RecoveryIsDeterministicAndScoped) {
  const std::size_t threads = GetParam();
  Rng rng(41);
  const nn::Network net = nn::BuildMlp("chaos", {32, 48, 10}, rng, 0.3);
  const std::vector<nn::Tensor> inputs = MakeInputs({32}, 6, rng);

  // Faulted run at the parameterized thread count.
  auto faulted = DpeAccelerator::Create(FtParams(threads), net, Rng(42));
  ASSERT_TRUE(faulted.ok());
  FaultInjector injector(ChaosScenario());
  ASSERT_TRUE((*faulted)->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());
  auto results = (*faulted)->InferBatch(inputs);
  ASSERT_TRUE(results.ok()) << "batch must survive mid-batch faults";
  ASSERT_EQ(results->size(), inputs.size());

  // Reference faulted run, single-threaded, fresh injector: every element
  // (affected or not) and the fault log must be bit-identical — recovery
  // decisions are a pure function of (seed, scenario, batch shape).
  auto reference = DpeAccelerator::Create(FtParams(1), net, Rng(42));
  ASSERT_TRUE(reference.ok());
  FaultInjector reference_injector(ChaosScenario());
  ASSERT_TRUE((*reference)->AttachFaultInjector(&reference_injector).ok());
  ASSERT_TRUE(reference_injector.Arm().ok());
  auto reference_results = (*reference)->InferBatch(inputs);
  ASSERT_TRUE(reference_results.ok());
  ASSERT_EQ(reference_results->size(), inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    ExpectBitIdentical((*results)[b], (*reference_results)[b]);
  }
  EXPECT_EQ(injector.log().Fingerprint(),
            reference_injector.log().Fingerprint());
  // 24 cluster cells + 1 tile death.
  EXPECT_EQ(injector.log().size(), 25u);

  // Elements before the first fault step are bit-identical to a run with
  // no injector at all, and report clean.
  auto clean = DpeAccelerator::Create(FtParams(1), net, Rng(42));
  ASSERT_TRUE(clean.ok());
  for (std::size_t b = 0; b < 2; ++b) {
    auto fault_free = (*clean)->Infer(inputs[b]);
    ASSERT_TRUE(fault_free.ok());
    ExpectBitIdentical((*results)[b], *fault_free);
    EXPECT_TRUE((*results)[b].fault_report.clean()) << "element " << b;
  }

  // Elements 2..3: the stuck cluster trips the guard, the retry re-hits
  // the same stuck cells, the element degrades, and the boundary remaps
  // the tile onto the first spare.
  for (std::size_t b = 2; b < 4; ++b) {
    const ElementFaultReport& report = (*results)[b].fault_report;
    EXPECT_FALSE(report.clean()) << "element " << b;
    EXPECT_EQ(report.detected, 1u) << "element " << b;
    EXPECT_EQ(report.retried, 1u) << "element " << b;
    EXPECT_EQ(report.degraded, 1u) << "element " << b;
  }
  // Elements 4..5: layer 1's tile is dead — detected without retry (there
  // is nothing to re-run), degraded, then remapped onto the second spare.
  for (std::size_t b = 4; b < 6; ++b) {
    const ElementFaultReport& report = (*results)[b].fault_report;
    EXPECT_FALSE(report.clean()) << "element " << b;
    EXPECT_EQ(report.detected, 1u) << "element " << b;
    EXPECT_EQ(report.retried, 0u) << "element " << b;
    EXPECT_EQ(report.degraded, 1u) << "element " << b;
  }

  const FaultReport& stats = (*faulted)->recovery_stats();
  EXPECT_EQ(stats.detected, 4u);
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.degraded, 4u);
  EXPECT_EQ(stats.remapped, 2u);  // one op per tile, not per element
  EXPECT_EQ((*faulted)->spares_available(), 0u);
  EXPECT_GT((*faulted)->recovery_cost().energy_pj, 0.0);

  // The remapped tiles are healthy again: the next batch is fully clean.
  auto after = (*faulted)->InferBatch(inputs);
  ASSERT_TRUE(after.ok());
  for (const InferResult& r : *after) {
    EXPECT_TRUE(r.fault_report.clean());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ChaosMidBatch,
                         ::testing::Values(1u, 2u, 8u));

TEST(FaultRecoveryTest, RetryRecoversTransientCorruption) {
  Rng rng(51);
  const nn::Network net = nn::BuildMlp("tr", {16, 12, 4}, rng, 0.3);
  auto acc = DpeAccelerator::Create(FtParams(1, /*spares=*/0), net, Rng(52));
  ASSERT_TRUE(acc.ok());

  FaultScenario scenario;
  scenario.seed = 7;
  FaultSpec transient;
  transient.kind = FaultKind::kTransientMvm;
  transient.target = "dpe.layer0";
  transient.at_step = 0;
  transient.tile = 0;
  transient.probability = 1.0;
  transient.magnitude = 0.5;
  scenario.specs.push_back(transient);
  FaultInjector injector(scenario);
  ASSERT_TRUE((*acc)->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());

  nn::Tensor input({16});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto result = (*acc)->Infer(input);
  ASSERT_TRUE(result.ok());
  // The transfer checksum catches the in-flight corruption; the retry is
  // clean because a transient does not recur on re-execution.
  EXPECT_EQ(result->fault_report.detected, 1u);
  EXPECT_EQ(result->fault_report.retried, 1u);
  EXPECT_EQ(result->fault_report.degraded, 0u);
  EXPECT_EQ((*acc)->recovery_stats().remapped, 0u);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log().Events()[0].kind, FaultKind::kTransientMvm);
}

TEST(FaultRecoveryTest, RemapRestoresCleanOperation) {
  Rng rng(55);
  const nn::Network net = nn::BuildMlp("rm", {32, 48, 10}, rng, 0.3);
  auto acc = DpeAccelerator::Create(FtParams(1, /*spares=*/1), net, Rng(56));
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ((*acc)->spares_available(), 1u);

  FaultScenario scenario;
  scenario.seed = 3;
  FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 0;
  cluster.tile = 0;
  cluster.cells = 24;
  cluster.row = 3;
  cluster.col = 5;
  scenario.specs.push_back(cluster);
  FaultInjector injector(scenario);
  ASSERT_TRUE((*acc)->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());

  nn::Tensor input({32});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto first = (*acc)->Infer(input);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->fault_report.clean());
  EXPECT_EQ((*acc)->recovery_stats().remapped, 1u);
  EXPECT_EQ((*acc)->spares_available(), 0u);
  // Remap rides the slow write path: reprogramming cost is charged.
  EXPECT_GT((*acc)->recovery_cost().energy_pj, 0.0);
  EXPECT_GT((*acc)->recovery_cost().latency_ns, 0.0);

  auto second = (*acc)->Infer(input);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->fault_report.clean());
}

TEST(FaultRecoveryTest, SpareExhaustionDegradesGracefully) {
  Rng rng(57);
  const nn::Network net = nn::BuildMlp("sx", {32, 48, 10}, rng, 0.3);
  auto acc = DpeAccelerator::Create(FtParams(1, /*spares=*/0), net, Rng(58));
  ASSERT_TRUE(acc.ok());

  FaultScenario scenario;
  scenario.seed = 3;
  FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 0;
  cluster.tile = 0;
  cluster.cells = 24;
  cluster.row = 3;
  cluster.col = 5;
  scenario.specs.push_back(cluster);
  FaultInjector injector(scenario);
  ASSERT_TRUE((*acc)->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());

  nn::Tensor input({32});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  // With no spares every inference keeps degrading — but keeps answering.
  for (int i = 0; i < 3; ++i) {
    auto result = (*acc)->Infer(input);
    ASSERT_TRUE(result.ok()) << "inference " << i;
    EXPECT_FALSE(result->fault_report.clean()) << "inference " << i;
    EXPECT_GE(result->fault_report.degraded, 1u) << "inference " << i;
  }
  EXPECT_EQ((*acc)->recovery_stats().remapped, 0u);
  EXPECT_EQ((*acc)->recovery_cost().energy_pj, 0.0);
}

TEST(FaultRecoveryTest, ProactiveRetirementRemapsWornTiles) {
  Rng rng(59);
  const nn::Network net = nn::BuildMlp("ag", {16, 8}, rng, 0.3);
  DpeParams params = FtParams(1, /*spares=*/1);
  // Tiny endurance budget: the programming writes alone wear the tile past
  // the retirement threshold, so the first boundary drain retires it.
  params.fault_tolerance.aging.endurance_cycles = 200;
  auto acc = DpeAccelerator::Create(params, net, Rng(60));
  ASSERT_TRUE(acc.ok());
  ASSERT_NE((*acc)->aging_monitor(), nullptr);

  nn::Tensor input({16});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto first = (*acc)->Infer(input);
  ASSERT_TRUE(first.ok());
  // The element itself computed on the worn-but-working tile: clean.
  EXPECT_TRUE(first->fault_report.clean());
  // The closed loop retired and remapped it before it could fail.
  EXPECT_EQ((*acc)->recovery_stats().remapped, 1u);
  EXPECT_EQ((*acc)->spares_available(), 0u);
  EXPECT_EQ((*acc)->aging_monitor()->unanticipated_failures(), 0u);

  auto second = (*acc)->Infer(input);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->fault_report.clean());
}

TEST(FaultInjectorTest, ArmRejectsUnknownTarget) {
  FaultScenario scenario;
  FaultSpec spec;
  spec.kind = FaultKind::kStuckOnCell;
  spec.target = "nonexistent";
  scenario.specs.push_back(spec);
  FaultInjector injector(scenario);
  EXPECT_EQ(injector.Arm().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, TileDeathRequiresFaultToleranceHooks) {
  // Without fault tolerance the accelerator has no dead flag to honour, so
  // it registers no kill_tile hook and Arm() fails loudly instead of the
  // scenario silently not firing.
  Rng rng(61);
  const nn::Network net = nn::BuildMlp("nf", {16, 8}, rng, 0.3);
  DpeParams params = DpeParams::Isaac();
  auto acc = DpeAccelerator::Create(params, net, Rng(62));
  ASSERT_TRUE(acc.ok());

  FaultScenario scenario;
  FaultSpec death;
  death.kind = FaultKind::kTileDeath;
  death.target = "dpe.layer0";
  scenario.specs.push_back(death);
  FaultInjector injector(scenario);
  ASSERT_TRUE((*acc)->AttachFaultInjector(&injector).ok());
  EXPECT_EQ(injector.Arm().code(), ErrorCode::kFailedPrecondition);
}

TEST(FaultInjectorTest, ScenarioValidationRejectsBadSpecs) {
  const auto reject = [](FaultSpec spec) {
    FaultScenario scenario;
    scenario.specs.push_back(std::move(spec));
    EXPECT_FALSE(scenario.Validate().ok());
  };
  FaultSpec empty_target;  // default target is ""
  reject(empty_target);

  FaultSpec zero_cells;
  zero_cells.target = "t";
  zero_cells.cells = 0;
  reject(zero_cells);

  FaultSpec bad_plane;
  bad_plane.target = "t";
  bad_plane.plane = 2;
  reject(bad_plane);

  FaultSpec bad_drift;
  bad_drift.kind = FaultKind::kDriftBurst;
  bad_drift.target = "t";
  bad_drift.drift_ns = 0.0;
  reject(bad_drift);

  FaultSpec bad_probability;
  bad_probability.kind = FaultKind::kTransientMvm;
  bad_probability.target = "t";
  bad_probability.probability = 1.5;
  reject(bad_probability);
}

TEST(FaultInjectorTest, StructuralStepsAreSortedDedupedExclusive) {
  FaultScenario scenario;
  for (std::uint64_t step : {5u, 2u, 5u, 9u, 0u}) {
    FaultSpec death;
    death.kind = FaultKind::kTileDeath;
    death.target = "t";
    death.at_step = step;
    scenario.specs.push_back(death);
  }
  FaultSpec transient;  // transients never split waves
  transient.kind = FaultKind::kTransientMvm;
  transient.target = "t";
  transient.at_step = 3;
  scenario.specs.push_back(transient);
  const FaultInjector injector(scenario);
  EXPECT_EQ(injector.StructuralStepsIn(0, 10),
            (std::vector<std::uint64_t>{2, 5, 9}));
  EXPECT_EQ(injector.StructuralStepsIn(2, 9),
            (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(injector.StructuralStepsIn(5, 6), std::vector<std::uint64_t>{});
}

TEST(FaultInjectorTest, SeededDrawsReplayIdentically) {
  // kAnyIndex coordinates draw from the scenario seed: two injectors over
  // fresh hook state must strike the exact same cells and fingerprint.
  struct Strike {
    std::size_t tile, row, col;
    bool stuck_on;
    bool operator==(const Strike&) const = default;
  };
  const auto run = [](std::vector<Strike>* strikes) -> std::uint64_t {
    FaultScenario scenario;
    scenario.seed = 1234;
    FaultSpec cluster;
    cluster.kind = FaultKind::kStuckOffCell;
    cluster.target = "array";
    cluster.cells = 6;  // tile, rows and cols all drawn from the seed
    scenario.specs.push_back(cluster);
    FaultInjector injector(scenario);
    InjectionHooks hooks;
    hooks.tiles = 4;
    hooks.tile_dims = [](std::size_t) {
      return std::pair<std::size_t, std::size_t>{16, 16};
    };
    hooks.inject_cell = [strikes](std::size_t tile, std::size_t row,
                                  std::size_t col, int, bool stuck_on) {
      strikes->push_back({tile, row, col, stuck_on});
    };
    EXPECT_TRUE(injector.RegisterHooks("array", std::move(hooks)).ok());
    EXPECT_TRUE(injector.Arm().ok());
    injector.AdvanceTo(0);
    return injector.log().Fingerprint();
  };
  std::vector<Strike> first, second;
  const std::uint64_t fp1 = run(&first);
  const std::uint64_t fp2 = run(&second);
  EXPECT_EQ(fp1, fp2);
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorTest, TransientDecisionIsPure) {
  const auto make = [] {
    FaultScenario scenario;
    scenario.seed = 77;
    FaultSpec transient;
    transient.kind = FaultKind::kTransientMvm;
    transient.target = "t";
    transient.probability = 0.5;
    transient.magnitude = 0.25;
    scenario.specs.push_back(transient);
    return scenario;
  };
  FaultInjector a(make());
  FaultInjector b(make());
  for (FaultInjector* injector : {&a, &b}) {
    ASSERT_TRUE(injector->RegisterHooks("t", InjectionHooks{}).ok());
    ASSERT_TRUE(injector->Arm().ok());
  }
  bool any_hit = false;
  for (std::size_t tile = 0; tile < 3; ++tile) {
    for (std::uint64_t call = 0; call < 32; ++call) {
      const double pa = a.TransientPerturbation("t", tile, 0, call);
      const double pb = b.TransientPerturbation("t", tile, 0, call);
      EXPECT_EQ(pa, pb) << "tile " << tile << " call " << call;
      if (pa != 0.0) any_hit = true;
    }
  }
  EXPECT_TRUE(any_hit);
  EXPECT_EQ(a.log().Fingerprint(), b.log().Fingerprint());
}

}  // namespace
}  // namespace cim::dpe
