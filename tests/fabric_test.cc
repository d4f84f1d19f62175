// Integration tests for the CIM fabric: static/dynamic/self-programmed
// streams, security enforcement, and tile failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arch/fabric.h"
#include "boundary_values.h"
#include "byte_mutator.h"
#include "common/rng.h"

namespace cim::arch {
namespace {

FabricParams SmallFabric() {
  FabricParams p;
  p.mesh.width = 4;
  p.mesh.height = 4;
  p.micro_units_per_tile = 1;
  return p;
}

// Loads a trivial scale-by-k program into the tile at `node`.
void LoadScaleProgram(Fabric& fabric, noc::NodeId node, double k) {
  auto tile = fabric.TileAt(node);
  ASSERT_TRUE(tile.ok());
  ASSERT_TRUE(
      (*tile)->micro_unit(0).LoadProgram({{OpCode::kMulScalar, k}}).ok());
}

TEST(FabricTest, CreateValidatesParams) {
  FabricParams p = SmallFabric();
  p.micro_units_per_tile = 0;
  EXPECT_FALSE(Fabric::Create(p).ok());
}

// Validate only: a 65535 x 65535 mesh would allocate ~4.3e9 nodes, and a
// code packet addresses a micro-unit with one byte.
TEST(FabricTest, SubstrateSizesBounded) {
  FabricParams p = SmallFabric();
  p.micro_units_per_tile = 256;
  EXPECT_TRUE(p.Validate().ok());
  for (const std::size_t units :
       {std::size_t{257}, std::numeric_limits<std::size_t>::max()}) {
    p.micro_units_per_tile = units;
    EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << units;
  }
  p = SmallFabric();
  p.mesh.width = 65535;
  p.mesh.height = 65535;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
  p = SmallFabric();
  p.micro_unit.local_slots = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
  p = SmallFabric();
  p.micro_unit.alu_latency_per_element =
      TimeNs(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
}

// FabricParams boundary fuzz, in the style of dpe_test's ParamsFuzzTest:
// one field at a time takes its boundary values (boundary_values.h).
// Over-bound sizes are only validated, never built. Every accepted value
// must survive Create plus one stream from (0, 0) to the far corner with a
// finite, non-negative latency.
TEST(FabricParamsFuzzTest, EveryAcceptedSingleFieldBoundaryRuns) {
  constexpr double kSecond = kMaxEventLatencyNs;
  constexpr double kJoule = kMaxEventEnergyPj;
  std::vector<fuzz::FuzzValue<FabricParams>> values;
  // The other side stays 4, so 16384 is the 65536-node bound.
  for (const auto& field : {
           CIM_FIELD_VALUES(FabricParams, mesh.width, 1, 16384),
           CIM_FIELD_VALUES(FabricParams, mesh.height, 1, 16384),
           CIM_FIELD_VALUES(FabricParams, mesh.link_bandwidth_gbps,
                            1.0 / kSecond),
           CIM_FIELD_VALUES(FabricParams, mesh.router_latency.ns, kSecond),
           CIM_FIELD_VALUES(FabricParams, mesh.link_latency.ns, kSecond),
           CIM_FIELD_VALUES(FabricParams, mesh.hop_energy_per_byte.pj, kJoule),
           CIM_FIELD_VALUES(FabricParams, mesh.router_energy.pj, kJoule),
           CIM_FIELD_VALUES(FabricParams, micro_units_per_tile, 1, 256),
           CIM_FIELD_VALUES(FabricParams, micro_unit.local_slots, 1, 4096),
           CIM_FIELD_VALUES(FabricParams, micro_unit.max_vector_len, 1),
           CIM_FIELD_VALUES(FabricParams,
                            micro_unit.alu_energy_per_element.pj, kJoule),
           CIM_FIELD_VALUES(FabricParams,
                            micro_unit.alu_latency_per_element.ns, kSecond),
           CIM_FIELD_VALUES(FabricParams, micro_unit.program_load_energy.pj,
                            kJoule),
           CIM_FIELD_VALUES(FabricParams, micro_unit.program_load_latency.ns,
                            kSecond),
       }) {
    values.insert(values.end(), field.begin(), field.end());
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& value : values) {
    FabricParams params = SmallFabric();
    value.apply(params);
    if (!params.Validate().ok()) {
      ++rejected;
      EXPECT_FALSE(Fabric::Create(params).ok()) << value.label;
      continue;
    }
    const bool non_finite = value.label.find("nan") != std::string::npos ||
                            value.label.find("inf") != std::string::npos;
    EXPECT_FALSE(non_finite) << value.label << " accepted";
    ++accepted;
    auto fabric = Fabric::Create(params);
    ASSERT_TRUE(fabric.ok()) << value.label;
    Fabric& f = **fabric;
    const noc::NodeId far{
        static_cast<std::uint16_t>(params.mesh.width - 1),
        static_cast<std::uint16_t>(params.mesh.height - 1)};
    LoadScaleProgram(f, {0, 0}, 2.0);
    LoadScaleProgram(f, far, 3.0);
    ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, far}).ok()) << value.label;
    std::optional<std::vector<double>> result;
    ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                   result = std::move(payload);
                 }).ok());
    ASSERT_TRUE(f.InjectData(1, {1.5}).ok()) << value.label;
    f.queue().Run();
    ASSERT_TRUE(result.has_value()) << value.label;
    EXPECT_EQ((*result)[0], 9.0) << value.label;  // 1.5 * 2 * 3
    const StreamStats* stats = f.StatsFor(1);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->completed, 1u) << value.label;
    const double latency = stats->end_to_end_latency_ns.mean();
    EXPECT_TRUE(std::isfinite(latency) && latency >= 0.0)
        << value.label << ": " << latency;
    const CostReport total = f.TotalCost();
    EXPECT_TRUE(std::isfinite(total.energy_pj) && total.energy_pj >= 0.0)
        << value.label;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FabricTest, StaticStreamFlowsThroughPath) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {1, 0}, 3.0);
  LoadScaleProgram(f, {2, 0}, 5.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {1, 0}, {2, 0}}).ok());
  std::optional<std::vector<double>> result;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 result = std::move(payload);
               }).ok());
  ASSERT_TRUE(f.InjectData(1, {1.0, 2.0}).ok());
  f.queue().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ((*result)[0], 30.0);  // 1 * 2 * 3 * 5
  EXPECT_DOUBLE_EQ((*result)[1], 60.0);
  const StreamStats* stats = f.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_GT(stats->end_to_end_latency_ns.mean(), 0.0);
}

TEST(FabricTest, SingleTileStreamSkipsTheMesh) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {2, 2}, 10.0);
  ASSERT_TRUE(f.ConfigureStream(7, {{2, 2}}).ok());
  std::optional<std::vector<double>> result;
  ASSERT_TRUE(f.SetStreamSink(7, [&](std::vector<double> payload, TimeNs) {
                 result = std::move(payload);
               }).ok());
  ASSERT_TRUE(f.InjectData(7, {4.0}).ok());
  f.queue().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ((*result)[0], 40.0);
  EXPECT_EQ(f.noc().telemetry().injected, 0u);
}

TEST(FabricTest, UnknownStreamRejected) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  EXPECT_EQ((*fabric)->InjectData(99, {1.0}).code(), ErrorCode::kNotFound);
  EXPECT_FALSE((*fabric)->SetStreamSink(99, nullptr).ok());
}

TEST(FabricTest, DynamicStreamRoutesByPayload) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 1.0);
  LoadScaleProgram(f, {3, 0}, 100.0);  // "large" branch
  LoadScaleProgram(f, {0, 3}, -1.0);   // "small" branch
  // Route by value: payloads >= 10 go east, others go north; second hop
  // terminates.
  ASSERT_TRUE(f.ConfigureDynamicStream(
                   5, {0, 0},
                   [](noc::NodeId current, std::span<const double> payload)
                       -> std::optional<noc::NodeId> {
                     if (current == noc::NodeId{0, 0}) {
                       return payload[0] >= 10.0 ? noc::NodeId{3, 0}
                                                 : noc::NodeId{0, 3};
                     }
                     return std::nullopt;
                   })
                  .ok());
  std::vector<double> outputs;
  ASSERT_TRUE(f.SetStreamSink(5, [&](std::vector<double> payload, TimeNs) {
                 outputs.push_back(payload[0]);
               }).ok());
  ASSERT_TRUE(f.InjectData(5, {20.0}).ok());
  ASSERT_TRUE(f.InjectData(5, {2.0}).ok());
  f.queue().Run();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0], 2000.0);  // 20 * 100
  EXPECT_DOUBLE_EQ(outputs[1], -2.0);    // 2 * -1
}

TEST(FabricTest, SelfProgrammingCodePacketReconfiguresTile) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {2, 0}, 1.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{2, 0}}).ok());
  std::vector<double> outputs;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 outputs.push_back(payload[0]);
               }).ok());
  ASSERT_TRUE(f.InjectData(1, {5.0}).ok());
  f.queue().Run();
  // Ship new code (scale by 7) to the tile, then re-inject.
  ASSERT_TRUE(
      f.SendProgram({0, 0}, {2, 0}, 0, {{OpCode::kMulScalar, 7.0}}).ok());
  f.queue().Run();
  ASSERT_TRUE(f.InjectData(1, {5.0}).ok());
  f.queue().Run();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0], 5.0);
  EXPECT_DOUBLE_EQ(outputs[1], 35.0);
  EXPECT_EQ(f.rejected_code_loads(), 0u);
}

TEST(FabricTest, UnauthenticatedCodeRejected) {
  FabricParams params = SmallFabric();
  params.authenticate_code = true;
  auto fabric = Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  // Craft a code packet with a bogus tag by injecting directly via the NoC.
  noc::Packet packet;
  packet.id = 999;
  packet.source = {0, 0};
  packet.destination = {1, 1};
  packet.kind = noc::PayloadKind::kCode;
  packet.inline_payload = {0};
  const auto body = SerializeProgram({{OpCode::kMulScalar, 0.0}});
  packet.inline_payload.insert(packet.inline_payload.end(), body.begin(),
                               body.end());
  packet.payload_bytes =
      static_cast<std::uint32_t>(packet.inline_payload.size());
  packet.auth_tag = 0xDEAD;  // wrong
  ASSERT_TRUE(f.noc().Inject(packet).ok());
  f.queue().Run();
  EXPECT_EQ(f.rejected_code_loads(), 1u);
}

// A code packet belongs to no data stream: its drop is counted by the mesh
// alone, even when a data stream uses id 0 (the control plane's id).
TEST(FabricTest, DroppedCodePacketIsNoStreamFailure) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  ASSERT_TRUE(f.FailTile({2, 0}).ok());
  const Program program{{OpCode::kMulScalar, 7.0}};
  EXPECT_FALSE(f.SendProgram({0, 0}, {2, 0}, 0, program).ok());
  f.queue().Run();
  EXPECT_EQ(f.noc().telemetry().dropped, 1u);
  EXPECT_EQ(f.StatsFor(0), nullptr);

  LoadScaleProgram(f, {0, 0}, 1.0);
  ASSERT_TRUE(f.ConfigureStream(0, {{0, 0}}).ok());
  EXPECT_FALSE(f.SendProgram({0, 0}, {2, 0}, 0, program).ok());
  f.queue().Run();
  EXPECT_EQ(f.noc().telemetry().dropped, 2u);
  const StreamStats* stats = f.StatsFor(0);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->injected, 0u);
  EXPECT_EQ(stats->failed, 0u);
}

TEST(FabricTest, SendProgramRejectsMicroUnitIndexBeyondHeader) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {2, 0}, 1.0);
  // The header holds the index in one byte: 256 must not wrap to 0.
  EXPECT_EQ(
      f.SendProgram({0, 0}, {2, 0}, 256, {{OpCode::kMulScalar, 7.0}}).code(),
      ErrorCode::kOutOfRange);
  f.queue().Run();
  auto tile = f.TileAt({2, 0});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ((*tile)->micro_unit(0).program(),
            (Program{{OpCode::kMulScalar, 1.0}}));
  EXPECT_EQ(f.rejected_code_loads(), 0u);
}

// Seeded mutation fuzzing of unauthenticated kCode payloads: each mutant is
// either loaded verbatim or counted as a rejected code load, and the tile
// keeps serving data afterwards.
TEST(FabricTest, MutatedCodePacketsAreLoadedOrRejected) {
  FabricParams params = SmallFabric();
  params.micro_units_per_tile = 2;
  params.authenticate_code = false;
  auto fabric = Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  const noc::NodeId target{1, 0};
  ASSERT_TRUE(f.ConfigureStream(1, {target}).ok());
  ASSERT_TRUE(f.SetStreamSink(1, [](std::vector<double>, TimeNs) {}).ok());
  auto tile = f.TileAt(target);
  ASSERT_TRUE(tile.ok());

  std::vector<std::uint8_t> valid = {1};  // micro-unit index byte
  const auto body = SerializeProgram({{OpCode::kMulScalar, 2.0},
                                      {OpCode::kStoreLocal, 0.0},
                                      {OpCode::kAddLocal, 0.0},
                                      {OpCode::kLoadLocal, 1.0}});
  valid.insert(valid.end(), body.begin(), body.end());

  std::uint64_t packet_id = std::uint64_t{1} << 32;  // clear of fabric ids
  std::uint64_t served = 0;
  std::uint64_t loaded = 0;
  for (const std::uint64_t seed : {1, 2}) {
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i) {
      noc::Packet packet;
      packet.id = packet_id++;
      packet.source = {0, 0};
      packet.destination = target;
      packet.qos = noc::QosClass::kControl;
      packet.kind = noc::PayloadKind::kCode;
      packet.inline_payload = fuzz::Mutate(valid, 1, rng);
      packet.payload_bytes =
          static_cast<std::uint32_t>(packet.inline_payload.size());
      const std::vector<std::uint8_t> payload = packet.inline_payload;
      const std::uint64_t rejected_before = f.rejected_code_loads();
      ASSERT_TRUE(f.noc().Inject(std::move(packet)).ok());
      f.queue().Run();
      if (f.rejected_code_loads() == rejected_before) {
        ASSERT_FALSE(payload.empty());
        ASSERT_LT(payload[0], (*tile)->micro_unit_count());
        ++loaded;
        // Compared as bytes: a flipped operand may be a NaN.
        EXPECT_EQ(SerializeProgram((*tile)->micro_unit(payload[0]).program()),
                  std::vector<std::uint8_t>(payload.begin() + 1, payload.end()))
            << "seed " << seed << " mutant " << i;
      } else {
        EXPECT_EQ(f.rejected_code_loads(), rejected_before + 1);
      }

      ASSERT_TRUE(f.InjectData(1, {1.0, -2.0}).ok());
      f.queue().Run();
      const StreamStats* stats = f.StatsFor(1);
      ASSERT_NE(stats, nullptr);
      EXPECT_EQ(stats->completed + stats->failed, ++served);
    }
  }
  // Both outcomes occur, so neither branch above is vacuous.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(f.rejected_code_loads(), 0u);
}

TEST(FabricTest, PartitionEnforcementBlocksCrossTraffic) {
  FabricParams params = SmallFabric();
  params.enforce_partitions = true;
  auto fabric = Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  f.partitions().Assign({0, 0}, 1);
  f.partitions().Assign({1, 0}, 2);  // different partition, no flow granted
  LoadScaleProgram(f, {0, 0}, 1.0);
  LoadScaleProgram(f, {1, 0}, 1.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {1, 0}}).ok());
  int completions = 0;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double>, TimeNs) {
                 ++completions;
               }).ok());
  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  f.queue().Run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(f.rejected_injections(), 1u);
  // Granting the flow unblocks it.
  f.partitions().GrantFlow(1, 2);
  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  f.queue().Run();
  EXPECT_EQ(completions, 1);
}

TEST(FabricTest, EncryptedStreamStillComputesCorrectly) {
  FabricParams params = SmallFabric();
  params.encrypt_data = true;
  auto fabric = Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {3, 3}, 4.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {3, 3}}).ok());
  std::optional<std::vector<double>> result;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 result = std::move(payload);
               }).ok());
  ASSERT_TRUE(f.InjectData(1, {1.25}).ok());
  f.queue().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ((*result)[0], 10.0);  // 1.25 * 2 * 4
}

TEST(FabricTest, FailedTileBreaksStreamUntilRedirected) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {1, 0}, 3.0);
  LoadScaleProgram(f, {1, 1}, 3.0);  // redundant unit with the same program
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {1, 0}}).ok());
  int completions = 0;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double>, TimeNs) {
                 ++completions;
               }).ok());
  ASSERT_TRUE(f.FailTile({1, 0}).ok());
  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  f.queue().Run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(f.StatsFor(1)->failed, 1u);
  // §V.A recovery: redirect the stream to the redundant unit.
  ASSERT_TRUE(f.RedirectStream(1, {{0, 0}, {1, 1}}).ok());
  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  f.queue().Run();
  EXPECT_EQ(completions, 1);
}

// A data packet the mesh drops between two hops is one stream failure, and
// its in-flight record goes with it; the stream itself keeps working.
TEST(FabricTest, DataPacketDroppedMidRouteIsOneStreamFailure) {
  FabricParams params = SmallFabric();
  params.mesh.height = 1;  // a row: a failed link leaves no detour
  auto fabric = Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {3, 0}, 3.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {3, 0}}).ok());
  std::vector<double> results;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 results.push_back(payload.at(0));
               }).ok());

  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  for (int i = 0; i < 100 && f.packets_in_flight() == 0; ++i) {
    ASSERT_TRUE(f.queue().Step());
  }
  ASSERT_EQ(f.packets_in_flight(), 1u);
  // The packet is on its way out of (0, 0); it dies at (1, 0).
  ASSERT_TRUE(f.noc().SetLinkFailed({1, 0}, noc::Direction::kEast, true).ok());
  f.queue().Run();
  EXPECT_EQ(f.noc().telemetry().dropped, 1u);
  EXPECT_EQ(f.packets_in_flight(), 0u);
  const StreamStats* stats = f.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->failed, 1u);
  EXPECT_EQ(stats->completed, 0u);

  ASSERT_TRUE(
      f.noc().SetLinkFailed({1, 0}, noc::Direction::kEast, false).ok());
  ASSERT_TRUE(f.InjectData(1, {5.0}).ok());
  f.queue().Run();
  EXPECT_EQ(results, (std::vector<double>{30.0}));
  EXPECT_EQ(stats->failed, 1u);
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_EQ(stats->injected, stats->completed + stats->failed);
  EXPECT_EQ(f.packets_in_flight(), 0u);
}

TEST(FabricTest, DataPacketToTileFailedInFlightIsOneStreamFailure) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {3, 3}, 3.0);
  LoadScaleProgram(f, {3, 0}, 3.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {3, 3}}).ok());
  std::vector<double> results;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 results.push_back(payload.at(0));
               }).ok());

  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  for (int i = 0; i < 100 && f.packets_in_flight() == 0; ++i) {
    ASSERT_TRUE(f.queue().Step());
  }
  ASSERT_EQ(f.packets_in_flight(), 1u);
  ASSERT_TRUE(f.FailTile({3, 3}).ok());
  f.queue().Run();
  EXPECT_EQ(f.noc().telemetry().dropped, 1u);
  EXPECT_EQ(f.packets_in_flight(), 0u);
  const StreamStats* stats = f.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->failed, 1u);

  ASSERT_TRUE(f.RedirectStream(1, {{0, 0}, {3, 0}}).ok());
  ASSERT_TRUE(f.InjectData(1, {5.0}).ok());
  f.queue().Run();
  EXPECT_EQ(results, (std::vector<double>{30.0}));
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_EQ(stats->injected, stats->completed + stats->failed);
  EXPECT_EQ(f.packets_in_flight(), 0u);
}

// Hundreds of payloads injected at one instant are all on the mesh at once,
// so the in-flight ring grows several times while holding live packets,
// and a code packet takes an id in the middle of theirs.
TEST(FabricTest, BurstOfPayloadsAllCompleteWithTheirValues) {
  constexpr std::size_t kPayloads = 600;
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {3, 3}, 3.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {3, 3}}).ok());
  std::vector<int> seen(kPayloads, 0);
  std::size_t wrong = 0;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 const auto i = static_cast<std::size_t>(payload.at(0) / 6.0);
                 const auto x = static_cast<double>(i);
                 if (i >= kPayloads ||
                     payload != std::vector<double>{6.0 * x, -3.0 * x}) {
                   ++wrong;
                   return;
                 }
                 ++seen[i];
               }).ok());
  for (std::size_t i = 0; i < kPayloads; ++i) {
    const auto x = static_cast<double>(i);
    ASSERT_TRUE(f.InjectData(1, {x, -0.5 * x}).ok());
  }
  std::size_t peak = 0;
  bool sent_code = false;
  while (f.queue().Step()) {
    peak = std::max(peak, f.packets_in_flight());
    if (!sent_code && f.packets_in_flight() == kPayloads / 2) {
      sent_code = true;
      ASSERT_TRUE(
          f.SendProgram({1, 1}, {2, 1}, 0, {{OpCode::kNop, 0.0}}).ok());
    }
  }
  EXPECT_TRUE(sent_code);
  EXPECT_EQ(peak, kPayloads);
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(kPayloads));
  const StreamStats* stats = f.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->injected, kPayloads);
  EXPECT_EQ(stats->completed, kPayloads);
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_EQ(f.noc().telemetry().delivered, kPayloads + 1);
  EXPECT_EQ(f.packets_in_flight(), 0u);
}

// A completion goes to the sink that was set when its payload completed,
// even if the sink is replaced before the completion event runs, and a
// sink may inject into its own stream.
TEST(FabricTest, CompletionKeepsItsSinkAndSinksMayInject) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 2.0);
  LoadScaleProgram(f, {1, 0}, 3.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {1, 0}}).ok());
  std::vector<double> first, second;
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 first.push_back(payload.at(0));
                 if (first.size() == 1) {
                   ASSERT_TRUE(f.InjectData(1, {payload.at(0)}).ok());
                 }
               }).ok());
  ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
  const StreamStats* stats = f.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  for (int i = 0; i < 100 && stats->completed == 0; ++i) {
    ASSERT_TRUE(f.queue().Step());
  }
  ASSERT_EQ(stats->completed, 1u);
  ASSERT_TRUE(first.empty());  // completed; its sink event is pending
  ASSERT_TRUE(f.SetStreamSink(1, [&](std::vector<double> payload, TimeNs) {
                 second.push_back(payload.at(0));
               }).ok());
  f.queue().Run();
  EXPECT_EQ(first, (std::vector<double>{6.0}));
  EXPECT_EQ(second, (std::vector<double>{36.0}));  // reinjected 6 x 2 x 3
  EXPECT_EQ(stats->completed, 2u);
}

TEST(FabricTest, RedirectValidation) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}}).ok());
  EXPECT_FALSE(f.RedirectStream(2, {{0, 0}}).ok());       // unknown stream
  EXPECT_FALSE(f.RedirectStream(1, {}).ok());             // empty path
  EXPECT_FALSE(f.RedirectStream(1, {{9, 9}}).ok());       // outside fabric
}

TEST(FabricTest, TotalCostGrowsWithTraffic) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  Fabric& f = **fabric;
  LoadScaleProgram(f, {0, 0}, 1.0);
  LoadScaleProgram(f, {3, 3}, 1.0);
  ASSERT_TRUE(f.ConfigureStream(1, {{0, 0}, {3, 3}}).ok());
  const CostReport before = f.TotalCost();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.InjectData(1, std::vector<double>(16, 1.0)).ok());
  }
  f.queue().Run();
  const CostReport after = f.TotalCost();
  EXPECT_GT(after.energy_pj, before.energy_pj);
  EXPECT_GT(after.bytes_moved, before.bytes_moved);
}

}  // namespace
}  // namespace cim::arch
