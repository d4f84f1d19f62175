// Tests for fault detection, the stream guardian (§V.A recovery), and the
// Table 1 comparative resilience models.
#include <gtest/gtest.h>

#include "arch/fabric.h"
#include "reliability/comparative.h"
#include "reliability/detection.h"
#include "reliability/guardian.h"

namespace cim::reliability {
namespace {

TEST(DetectionTest, ChecksumStableAndOrderSensitive) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{3.0, 2.0, 1.0};
  EXPECT_EQ(PayloadChecksum(a), PayloadChecksum(a));
  EXPECT_NE(PayloadChecksum(a), PayloadChecksum(b));
}

TEST(DetectionTest, GuardedPayloadDetectsCorruption) {
  GuardedPayload g = GuardedPayload::Seal({1.0, 2.0, 3.0});
  EXPECT_TRUE(g.Verify().ok());
  g.values[1] += 1e-9;  // even tiny corruption flips bits
  EXPECT_EQ(g.Verify().code(), ErrorCode::kDataCorruption);
}

TEST(DetectionTest, EmptyPayloadVerifies) {
  const GuardedPayload g = GuardedPayload::Seal({});
  EXPECT_TRUE(g.Verify().ok());
}

arch::FabricParams GuardianFabric() {
  arch::FabricParams p;
  p.mesh.width = 4;
  p.mesh.height = 4;
  return p;
}

void LoadIdentity(arch::Fabric& fabric, noc::NodeId node) {
  auto tile = fabric.TileAt(node);
  ASSERT_TRUE(tile.ok());
  ASSERT_TRUE((*tile)->micro_unit(0)
                  .LoadProgram({{arch::OpCode::kMulScalar, 1.0}})
                  .ok());
}

TEST(GuardianTest, CleanPathDeliversEverything) {
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  for (auto node : {noc::NodeId{0, 0}, noc::NodeId{1, 0}}) {
    LoadIdentity(f, node);
  }
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}}, {},
      [&](std::vector<double>, TimeNs) { ++delivered; });
  ASSERT_TRUE(guardian.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*guardian)->Inject({1.0 * i}).ok());
  }
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ((*guardian)->stats().availability(), 1.0);
  EXPECT_EQ((*guardian)->outstanding(), 0u);
  EXPECT_EQ((*guardian)->stats().redirections, 0u);
}

TEST(GuardianTest, TileFailureRecoversViaRedundantPath) {
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  for (auto node : {noc::NodeId{0, 0}, noc::NodeId{1, 0}, noc::NodeId{1, 1}}) {
    LoadIdentity(f, node);
  }
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}}, {{{0, 0}, {1, 1}}},
      [&](std::vector<double>, TimeNs) { ++delivered; });
  ASSERT_TRUE(guardian.ok());

  // First payload flows on the primary.
  ASSERT_TRUE((*guardian)->Inject({1.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 1);

  // Fail the primary processing tile mid-stream; held data re-injects on
  // the backup path after Poll.
  ASSERT_TRUE(f.FailTile({1, 0}).ok());
  ASSERT_TRUE((*guardian)->Inject({2.0}).ok());
  ASSERT_TRUE((*guardian)->Inject({3.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();  // detects failures, switches path, re-injects
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ((*guardian)->stats().redirections, 1u);
  EXPECT_EQ((*guardian)->stats().retried, 2u);
  EXPECT_EQ((*guardian)->active_path_index(), 1u);
  EXPECT_DOUBLE_EQ((*guardian)->stats().availability(), 1.0);
}

TEST(GuardianTest, NoHealthyPathLosesHeldData) {
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  LoadIdentity(f, {0, 0});
  LoadIdentity(f, {1, 0});
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}}, {},
      [&](std::vector<double>, TimeNs) { ++delivered; });
  ASSERT_TRUE(guardian.ok());
  ASSERT_TRUE(f.FailTile({1, 0}).ok());
  ASSERT_TRUE((*guardian)->Inject({1.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ((*guardian)->stats().lost, 1u);
  EXPECT_EQ((*guardian)->outstanding(), 0u);
  EXPECT_LT((*guardian)->stats().availability(), 1.0);
}

TEST(GuardianTest, AllBackupPathsDeadCountsPayloadsLost) {
  // Retry exhaustion, topology edition: the primary AND every backup path
  // are dead, so SwitchToHealthyPath has nowhere to go — everything held
  // is counted lost (not retried forever) and the guardian stays usable.
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  for (auto node : {noc::NodeId{0, 0}, noc::NodeId{1, 0}, noc::NodeId{1, 1},
                    noc::NodeId{2, 0}}) {
    LoadIdentity(f, node);
  }
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}}, {{{0, 0}, {1, 1}}, {{0, 0}, {2, 0}}},
      [&](std::vector<double>, TimeNs) { ++delivered; });
  ASSERT_TRUE(guardian.ok());

  ASSERT_TRUE(f.FailTile({1, 0}).ok());
  ASSERT_TRUE(f.FailTile({1, 1}).ok());
  ASSERT_TRUE(f.FailTile({2, 0}).ok());
  ASSERT_TRUE((*guardian)->Inject({1.0}).ok());
  ASSERT_TRUE((*guardian)->Inject({2.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ((*guardian)->stats().lost, 2u);
  EXPECT_EQ((*guardian)->outstanding(), 0u);
  EXPECT_LT((*guardian)->stats().availability(), 1.0);
  // Poll after the loss is a no-op, not a crash or a double count.
  (*guardian)->Poll();
  (*guardian)->Poll();
  EXPECT_EQ((*guardian)->stats().lost, 2u);
}

TEST(GuardianTest, PerPayloadRetryBudgetExhausts) {
  // Retry exhaustion, budget edition: healthy paths keep existing, but the
  // payload's own retry budget (max_retries_per_payload = 1) runs out as
  // each path it lands on dies under it.
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  // Backup 2 ends on the neighbour (0,1): reachable by minimal X-Y routing
  // even after the column-1 nodes die (FailTile fails the NoC node too).
  for (auto node : {noc::NodeId{0, 0}, noc::NodeId{1, 0}, noc::NodeId{1, 1},
                    noc::NodeId{0, 1}}) {
    LoadIdentity(f, node);
  }
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}}, {{{0, 0}, {1, 1}}, {{0, 0}, {0, 1}}},
      [&](std::vector<double>, TimeNs) { ++delivered; },
      /*max_retries_per_payload=*/1);
  ASSERT_TRUE(guardian.ok());

  // Primary dies with the payload in flight; Poll retries on backup 1.
  ASSERT_TRUE(f.FailTile({1, 0}).ok());
  ASSERT_TRUE((*guardian)->Inject({1.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ((*guardian)->stats().retried, 1u);
  EXPECT_EQ((*guardian)->active_path_index(), 1u);

  // Backup 1 dies too: the retry budget is spent, so the payload is lost
  // even though backup 2 is healthy — and the stream itself moves on.
  ASSERT_TRUE(f.FailTile({1, 1}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ((*guardian)->stats().lost, 1u);
  EXPECT_EQ((*guardian)->stats().retried, 1u);
  EXPECT_EQ((*guardian)->outstanding(), 0u);
  EXPECT_EQ((*guardian)->active_path_index(), 2u);
  EXPECT_LT((*guardian)->stats().availability(), 1.0);

  // The surviving path still carries fresh traffic.
  ASSERT_TRUE((*guardian)->Inject({3.0}).ok());
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 1);
}

// A code packet dropped on its way to a failed tile is no loss of the
// guardian's stream, even on id 0, so nothing is re-injected.
TEST(GuardianTest, DroppedCodePacketTriggersNoRetry) {
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  LoadIdentity(f, {0, 0});
  LoadIdentity(f, {1, 0});
  int delivered = 0;
  auto guardian = StreamGuardian::Create(
      &f, 0, {{0, 0}, {1, 0}}, {},
      [&](std::vector<double>, TimeNs) { ++delivered; });
  ASSERT_TRUE(guardian.ok());
  ASSERT_TRUE(f.FailTile({3, 3}).ok());
  ASSERT_TRUE((*guardian)->Inject({1.0}).ok());
  EXPECT_FALSE(
      f.SendProgram({0, 0}, {3, 3}, 0, {{arch::OpCode::kMulScalar, 2.0}})
          .ok());
  (*guardian)->Poll();
  f.queue().Run();
  (*guardian)->Poll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ((*guardian)->stats().retried, 0u);
  EXPECT_EQ((*guardian)->outstanding(), 0u);
}

TEST(GuardianTest, CreateValidation) {
  auto fabric = arch::Fabric::Create(GuardianFabric());
  ASSERT_TRUE(fabric.ok());
  EXPECT_FALSE(StreamGuardian::Create(nullptr, 1, {{0, 0}}, {}, nullptr).ok());
  EXPECT_FALSE(
      StreamGuardian::Create(fabric->get(), 1, {}, {}, nullptr).ok());
  EXPECT_FALSE(StreamGuardian::Create(fabric->get(), 1, {{0, 0}}, {{}},
                                      nullptr)
                   .ok());
}

TEST(ComparativeTest, ProfilesMatchTable1Columns) {
  const ApproachProfile shared =
      ProfileOf(Approach::kSharedMemoryParallel);
  const ApproachProfile distributed = ProfileOf(Approach::kDistributed);
  const ApproachProfile cim = ProfileOf(Approach::kComputingInMemory);
  EXPECT_EQ(shared.programming_model, "multi-threaded");
  EXPECT_EQ(distributed.programming_model, "message passing");
  EXPECT_EQ(cim.programming_model, "dataflow");
  // Scaling: parallel < distributed < CIM ("no perceived limit").
  EXPECT_LT(shared.scaling_ceiling_components,
            distributed.scaling_ceiling_components);
  EXPECT_LT(distributed.scaling_ceiling_components,
            cim.scaling_ceiling_components);
  EXPECT_EQ(cim.security_boundary, "packet and stream");
}

TEST(ComparativeTest, BlastRadiusOrdering) {
  Rng rng(1);
  ResilienceParams params;
  auto shared =
      RunResilienceExperiment(Approach::kSharedMemoryParallel, params, rng);
  auto distributed =
      RunResilienceExperiment(Approach::kDistributed, params, rng);
  auto cim =
      RunResilienceExperiment(Approach::kComputingInMemory, params, rng);
  ASSERT_TRUE(shared.ok() && distributed.ok() && cim.ok());
  EXPECT_DOUBLE_EQ(shared->blast_radius, 1.0);
  EXPECT_LT(distributed->blast_radius, 1.0);
  EXPECT_LE(cim->blast_radius, distributed->blast_radius);
}

TEST(ComparativeTest, AvailabilityOrderingUnderFaults) {
  Rng rng(2);
  ResilienceParams params;
  params.fault_rate_per_component_per_sec = 1e-3;  // frequent faults
  auto shared =
      RunResilienceExperiment(Approach::kSharedMemoryParallel, params, rng);
  auto distributed =
      RunResilienceExperiment(Approach::kDistributed, params, rng);
  auto cim =
      RunResilienceExperiment(Approach::kComputingInMemory, params, rng);
  ASSERT_TRUE(shared.ok() && distributed.ok() && cim.ok());
  EXPECT_LT(shared->availability, distributed->availability);
  EXPECT_LT(distributed->availability, cim->availability);
  // CIM's stream redirection keeps availability essentially perfect.
  EXPECT_GT(cim->availability, 0.999999);
  // Recovery time ordering: restart >> failover >> stream redirection.
  EXPECT_GT(shared->mean_recovery_sec,
            10.0 * distributed->mean_recovery_sec);
  EXPECT_GT(distributed->mean_recovery_sec,
            100.0 * cim->mean_recovery_sec);
}

TEST(ComparativeTest, NoFaultsMeansPerfectAvailability) {
  Rng rng(3);
  ResilienceParams params;
  params.fault_rate_per_component_per_sec = 0.0;
  for (auto approach :
       {Approach::kSharedMemoryParallel, Approach::kDistributed,
        Approach::kComputingInMemory}) {
    auto report = RunResilienceExperiment(approach, params, rng);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->faults, 0u);
    EXPECT_DOUBLE_EQ(report->availability, 1.0);
  }
}

TEST(ComparativeTest, ParamsValidated) {
  Rng rng(4);
  ResilienceParams params;
  params.components = 0;
  EXPECT_FALSE(
      RunResilienceExperiment(Approach::kDistributed, params, rng).ok());
}

}  // namespace
}  // namespace cim::reliability
