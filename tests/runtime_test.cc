// Tests for resource management (§IV.C) and the Fig 6 integration models.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/integration.h"
#include "runtime/sla.h"

namespace cim::runtime {
namespace {

TEST(SlaControllerTest, ScaleUpOnViolation) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 4}).ok());
  for (int i = 0; i < 4; ++i) sla.Observe(1, 2000.0);
  auto decisions = sla.Evaluate();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, SlaAction::kScaleUp);
  EXPECT_EQ(sla.violations(), 1u);
}

TEST(SlaControllerTest, ScaleDownWhenFarUnder) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 4}).ok());
  for (int i = 0; i < 4; ++i) sla.Observe(1, 100.0);
  auto decisions = sla.Evaluate();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, SlaAction::kScaleDown);
  EXPECT_EQ(sla.violations(), 0u);
}

TEST(SlaControllerTest, HysteresisBandTakesNoAction) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 2}).ok());
  sla.Observe(1, 700.0);
  sla.Observe(1, 800.0);
  EXPECT_TRUE(sla.Evaluate().empty());
}

TEST(SlaControllerTest, NeedsMinimumSamples) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 8}).ok());
  for (int i = 0; i < 7; ++i) sla.Observe(1, 9999.0);
  EXPECT_TRUE(sla.Evaluate().empty());
  sla.Observe(1, 9999.0);
  EXPECT_EQ(sla.Evaluate().size(), 1u);
}

TEST(SlaControllerTest, WindowResetsAfterEvaluation) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 2}).ok());
  sla.Observe(1, 5000.0);
  sla.Observe(1, 5000.0);
  EXPECT_EQ(sla.Evaluate().size(), 1u);
  // Old samples are gone; a single new sample is below min_samples.
  sla.Observe(1, 5000.0);
  EXPECT_TRUE(sla.Evaluate().empty());
}

TEST(SlaControllerTest, TargetValidation) {
  SlaController sla;
  EXPECT_FALSE(sla.SetTarget(1, {-5.0, 0.5, 2}).ok());
  EXPECT_FALSE(sla.SetTarget(1, {100.0, 1.5, 2}).ok());
  EXPECT_FALSE(sla.SetTarget(1, {100.0, 0.5, 2, -0.1}).ok());
  EXPECT_FALSE(sla.SetTarget(1, {100.0, 0.5, 2, 1.5}).ok());
  EXPECT_TRUE(sla.SetTarget(1, {100.0, 0.5, 2, 0.0}).ok());  // strict floor
}

TEST(SlaControllerTest, RelocateWhenQualityFloorBreached) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 4, 0.25}).ok());
  // No latency samples at all: the quality window alone drives the verdict.
  sla.ObserveQuality(1, true);
  sla.ObserveQuality(1, true);
  sla.ObserveQuality(1, false);
  sla.ObserveQuality(1, false);
  auto decisions = sla.Evaluate();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, SlaAction::kRelocate);
  EXPECT_DOUBLE_EQ(decisions[0].degraded_fraction, 0.5);
  EXPECT_EQ(sla.violations(), 1u);
}

TEST(SlaControllerTest, QualityFloorDominatesLatencyVerdict) {
  // A stream can be fast *because* its tiles degraded; relocation must win
  // over the scale-down the latency window would otherwise issue.
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 2, 0.25}).ok());
  sla.Observe(1, 100.0);  // far under target -> would be kScaleDown
  sla.Observe(1, 100.0);
  sla.ObserveQuality(1, true);
  sla.ObserveQuality(1, true);
  auto decisions = sla.Evaluate();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, SlaAction::kRelocate);
  EXPECT_EQ(sla.violations(), 1u);
}

TEST(SlaControllerTest, QualityWindowResetsAfterEvaluation) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 2, 0.25}).ok());
  sla.ObserveQuality(1, true);
  sla.ObserveQuality(1, true);
  EXPECT_EQ(sla.Evaluate().size(), 1u);
  // Old quality samples are gone; one new sample is below min_samples.
  sla.ObserveQuality(1, true);
  EXPECT_TRUE(sla.Evaluate().empty());
}

TEST(SlaControllerTest, SustainedDegradationRelocatesUntilQualityRecovers) {
  // The hysteresis contract the serving loop's quarantine path leans on:
  // every evaluation window that stays above the quality floor demands
  // relocation again, and the first clean window after the stream lands on
  // healthy hardware takes no action at all (no lingering state from the
  // violating windows).
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(7, {1000.0, 0.5, 4, 0.25}).ok());
  for (int window = 0; window < 3; ++window) {
    for (int i = 0; i < 4; ++i) sla.ObserveQuality(7, /*degraded=*/true);
    auto decisions = sla.Evaluate();
    ASSERT_EQ(decisions.size(), 1u) << "window " << window;
    EXPECT_EQ(decisions[0].action, SlaAction::kRelocate);
    EXPECT_DOUBLE_EQ(decisions[0].degraded_fraction, 1.0);
  }
  EXPECT_EQ(sla.violations(), 3u);
  // Post-relocation: clean results at a latency inside the hysteresis band
  // -> no decision, and the violation counter stops moving.
  for (int i = 0; i < 4; ++i) {
    sla.ObserveQuality(7, /*degraded=*/false);
    sla.Observe(7, 800.0);  // between 0.5 * target and target
  }
  EXPECT_TRUE(sla.Evaluate().empty());
  EXPECT_EQ(sla.violations(), 3u);
}

TEST(SlaControllerTest, QualityEnforcementDisabledByDefault) {
  SlaController sla;
  ASSERT_TRUE(sla.SetTarget(1, {1000.0, 0.5, 2}).ok());  // floor = 1.0
  sla.ObserveQuality(1, true);
  sla.ObserveQuality(1, true);
  EXPECT_TRUE(sla.Evaluate().empty());
  EXPECT_EQ(sla.violations(), 0u);
}

TEST(IntegrationTest, OverheadShrinksAcrossTheEvolution) {
  // Fig 6: slave -> cooperative -> integrated -> native monotonically
  // reduces the non-compute overhead fraction.
  dpe::AnalyticalDpeModel model;
  Rng rng(1);
  const nn::Network net = nn::BuildMlp("m", {256, 128, 10}, rng);
  auto reports = EvaluateAllIntegrations(model, net);
  ASSERT_TRUE(reports.ok());
  for (int i = 1; i < kIntegrationModelCount; ++i) {
    EXPECT_LT((*reports)[i].overhead_fraction,
              (*reports)[i - 1].overhead_fraction)
        << IntegrationModelName((*reports)[i].model);
    EXPECT_GT((*reports)[i].requests_per_sec,
              (*reports)[i - 1].requests_per_sec);
  }
  // Compute is identical across stages; only overhead changes.
  for (const auto& r : *reports) {
    EXPECT_DOUBLE_EQ(r.compute_latency_ns, (*reports)[0].compute_latency_ns);
  }
  // The slave model is dominated by overhead for this small network.
  EXPECT_GT((*reports)[0].overhead_fraction, 0.5);
  // Native has zero dispatch overhead (only the data link).
  EXPECT_LT((*reports)[3].overhead_fraction, 0.1);
}

TEST(IntegrationTest, EnergyFallsAsHostStepsAside) {
  dpe::AnalyticalDpeModel model;
  Rng rng(2);
  const nn::Network net = nn::BuildMlp("m", {64, 32}, rng);
  auto reports = EvaluateAllIntegrations(model, net);
  ASSERT_TRUE(reports.ok());
  EXPECT_GT((*reports)[0].energy_pj, (*reports)[3].energy_pj);
}

}  // namespace
}  // namespace cim::runtime
