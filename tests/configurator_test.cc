// Tests for the declarative fabric configurator (Fig 4 / §V.C).
#include <gtest/gtest.h>

#include "arch/configurator.h"

namespace cim::arch {
namespace {

FabricParams SmallFabric() {
  FabricParams p;
  p.mesh.width = 3;
  p.mesh.height = 3;
  p.micro_units_per_tile = 2;
  return p;
}

FabricConfig BasicConfig() {
  FabricConfig config;
  config.tiles.push_back(TileConfig{
      {0, 0},
      {Program{{OpCode::kMulScalar, 2.0}}, Program{{OpCode::kRelu, 0.0}}}});
  config.tiles.push_back(
      TileConfig{{1, 0}, {Program{{OpCode::kAddScalar, 1.0}}}});
  config.streams.push_back(StreamConfigEntry{7, {{0, 0}, {1, 0}},
                                             noc::QosClass::kRealtime});
  config.partitions.push_back(PartitionEntry{{0, 0}, 1});
  config.partitions.push_back(PartitionEntry{{1, 0}, 1});
  return config;
}

TEST(ConfiguratorTest, ValidatesReferences) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  FabricConfig config = BasicConfig();
  EXPECT_TRUE(Configurator::Validate(**fabric, config).ok());

  FabricConfig bad_tile = BasicConfig();
  bad_tile.tiles[0].node = {9, 9};
  EXPECT_FALSE(Configurator::Validate(**fabric, bad_tile).ok());

  FabricConfig too_many_units = BasicConfig();
  too_many_units.tiles[0].unit_programs.resize(5);
  EXPECT_FALSE(Configurator::Validate(**fabric, too_many_units).ok());

  FabricConfig dup_stream = BasicConfig();
  dup_stream.streams.push_back(dup_stream.streams[0]);
  EXPECT_FALSE(Configurator::Validate(**fabric, dup_stream).ok());

  FabricConfig empty_path = BasicConfig();
  empty_path.streams[0].path.clear();
  EXPECT_FALSE(Configurator::Validate(**fabric, empty_path).ok());

  FabricConfig reserved_partition = BasicConfig();
  reserved_partition.partitions[0].partition = 0;
  EXPECT_FALSE(Configurator::Validate(**fabric, reserved_partition).ok());
}

TEST(ConfiguratorTest, ApplyLoadsEverythingAndWorksEndToEnd) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  auto report = Configurator::Apply(**fabric, BasicConfig());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->programs_loaded, 3u);
  EXPECT_EQ(report->streams_configured, 1u);
  EXPECT_EQ(report->partitions_assigned, 2u);
  EXPECT_GT(report->reconfiguration_cost.energy_pj, 0.0);

  // The configured stream computes: (x * 2 | relu) then +1.
  double result = 0.0;
  ASSERT_TRUE((*fabric)
                  ->SetStreamSink(7,
                                  [&](std::vector<double> payload, TimeNs) {
                                    result = payload[0];
                                  })
                  .ok());
  ASSERT_TRUE((*fabric)->InjectData(7, {3.0}).ok());
  (*fabric)->queue().Run();
  EXPECT_DOUBLE_EQ(result, 7.0);
}

TEST(ConfiguratorTest, ReapplyingIdenticalConfigIsFree) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  const FabricConfig config = BasicConfig();
  ASSERT_TRUE(Configurator::Apply(**fabric, config).ok());
  auto second = Configurator::Apply(**fabric, config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->programs_loaded, 0u);
  EXPECT_EQ(second->programs_unchanged, 3u);
  EXPECT_DOUBLE_EQ(second->reconfiguration_cost.energy_pj, 0.0);
}

TEST(ConfiguratorTest, IncrementalReconfigurationOnlyTouchesDiffs) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  FabricConfig config = BasicConfig();
  ASSERT_TRUE(Configurator::Apply(**fabric, config).ok());
  // Change one program out of three.
  config.tiles[1].unit_programs[0] = Program{{OpCode::kAddScalar, 5.0}};
  auto report = Configurator::Apply(**fabric, config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->programs_loaded, 1u);
  EXPECT_EQ(report->programs_unchanged, 2u);
}

TEST(ConfiguratorTest, InvalidConfigAppliesNothing) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  FabricConfig config = BasicConfig();
  config.streams.push_back(StreamConfigEntry{8, {{9, 9}}});  // bad path
  EXPECT_FALSE(Configurator::Apply(**fabric, config).ok());
  // The valid parts were not applied either (validation is up-front).
  EXPECT_FALSE((*fabric)->InjectData(7, {1.0}).ok());
  EXPECT_EQ((*fabric)->partitions().PartitionOf({0, 0}),
            noc::PartitionManager::kUnassigned);
}

TEST(ConfiguratorTest, ConfigProgrammingAFailedTileAppliesNothing) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  ASSERT_TRUE((*fabric)->FailTile({1, 0}).ok());
  const FabricConfig config = BasicConfig();  // programs (0,0), then (1,0)
  EXPECT_EQ(Configurator::Validate(**fabric, config).code(),
            ErrorCode::kUnavailable);
  EXPECT_FALSE(Configurator::Apply(**fabric, config).ok());
  // Tile (0,0), listed before the failed tile, kept its empty programs.
  auto tile = (*fabric)->TileAt({0, 0});
  ASSERT_TRUE(tile.ok());
  EXPECT_TRUE((*tile)->micro_unit(0).program().empty());
  EXPECT_TRUE((*tile)->micro_unit(1).program().empty());
  EXPECT_EQ((*fabric)->partitions().PartitionOf({0, 0}),
            noc::PartitionManager::kUnassigned);
}

TEST(ConfiguratorTest, SkippedSlotsLeaveUnitsAlone) {
  auto fabric = Fabric::Create(SmallFabric());
  ASSERT_TRUE(fabric.ok());
  // Pre-load a program in unit 1 of tile (0,0).
  auto tile = (*fabric)->TileAt({0, 0});
  ASSERT_TRUE(tile.ok());
  ASSERT_TRUE(
      (*tile)->micro_unit(1).LoadProgram({{OpCode::kSigmoid, 0.0}}).ok());

  FabricConfig config;
  config.tiles.push_back(TileConfig{
      {0, 0}, {Program{{OpCode::kMulScalar, 3.0}}, std::nullopt}});
  auto report = Configurator::Apply(**fabric, config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->programs_loaded, 1u);
  // Unit 1 still runs its sigmoid.
  EXPECT_EQ((*tile)->micro_unit(1).program()[0].op, OpCode::kSigmoid);
}

}  // namespace
}  // namespace cim::arch
