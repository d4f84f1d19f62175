// Tests for the Fig 6 integration models.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/integration.h"

namespace cim::runtime {
namespace {

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
