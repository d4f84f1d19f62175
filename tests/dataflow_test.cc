// Tests for the dataflow graph IR, the placer, and the DAG executor.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dataflow/executor.h"
#include "dataflow/graph.h"
#include "dataflow/placer.h"

namespace cim::dataflow {
namespace {

GraphNode ScaleNode(const std::string& name, double k) {
  return GraphNode{name, {{arch::OpCode::kMulScalar, k}}, std::nullopt};
}

ExecutorParams SmallExecutor() {
  ExecutorParams p;
  p.mesh.width = 4;
  p.mesh.height = 4;
  return p;
}

TEST(DataflowGraphTest, NodeAndEdgeValidation) {
  DataflowGraph g;
  ASSERT_TRUE(g.AddNode(ScaleNode("a", 1.0)).ok());
  EXPECT_FALSE(g.AddNode(ScaleNode("a", 2.0)).ok());  // duplicate
  EXPECT_FALSE(g.AddNode(GraphNode{"", {}, std::nullopt}).ok());
  ASSERT_TRUE(g.AddNode(ScaleNode("b", 1.0)).ok());
  EXPECT_TRUE(g.AddEdge("a", "b").ok());
  EXPECT_FALSE(g.AddEdge("a", "zzz").ok());
  EXPECT_FALSE(g.AddEdge("a", "a").ok());
}

TEST(DataflowGraphTest, CycleDetected) {
  DataflowGraph g;
  ASSERT_TRUE(g.AddNode(ScaleNode("a", 1.0)).ok());
  ASSERT_TRUE(g.AddNode(ScaleNode("b", 1.0)).ok());
  ASSERT_TRUE(g.AddEdge("a", "b").ok());
  ASSERT_TRUE(g.AddEdge("b", "a").ok());
  EXPECT_FALSE(g.Validate().ok());
  EXPECT_FALSE(g.TopologicalOrder().ok());
}

TEST(DataflowGraphTest, MvmWithoutConfigRejected) {
  DataflowGraph g;
  ASSERT_TRUE(
      g.AddNode(GraphNode{"m", {{arch::OpCode::kMvm, 0.0}}, std::nullopt})
          .ok());
  EXPECT_EQ(g.Validate().code(), ErrorCode::kFailedPrecondition);
}

TEST(DataflowGraphTest, SourcesAndSinks) {
  DataflowGraph g;
  for (const char* n : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(g.AddNode(ScaleNode(n, 1.0)).ok());
  }
  ASSERT_TRUE(g.AddEdge("a", "b").ok());
  ASSERT_TRUE(g.AddEdge("a", "c").ok());
  ASSERT_TRUE(g.AddEdge("b", "d").ok());
  ASSERT_TRUE(g.AddEdge("c", "d").ok());
  EXPECT_EQ(g.Sources(), (std::vector<std::string>{"a"}));
  EXPECT_EQ(g.Sinks(), (std::vector<std::string>{"d"}));
  EXPECT_EQ(g.InDegree("d"), 2u);
}

TEST(PlacerTest, PipelinePlacesAllNodes) {
  auto pipeline = MakePipeline({ScaleNode("s1", 1.0), ScaleNode("s2", 1.0),
                                ScaleNode("s3", 1.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{4, 4, 1});
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->tiles.size(), 3u);
  // Adjacent stages land on adjacent tiles (greedy keeps cost minimal).
  auto cost = PlacementCost(*pipeline, *placement);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 2);
}

TEST(PlacerTest, CapacityRespected) {
  auto pipeline = MakePipeline({ScaleNode("a", 1.0), ScaleNode("b", 1.0),
                                ScaleNode("c", 1.0), ScaleNode("d", 1.0),
                                ScaleNode("e", 1.0)});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ(PlaceGraph(*pipeline, PlacerParams{2, 2, 1}).status().code(),
            ErrorCode::kCapacityExceeded);
  auto fits = PlaceGraph(*pipeline, PlacerParams{2, 2, 2});
  ASSERT_TRUE(fits.ok());
  // No tile exceeds its capacity.
  std::map<std::uint32_t, int> load;
  for (const auto& [node, tile] : fits->tiles) {
    ++load[(static_cast<std::uint32_t>(tile.y) << 16) | tile.x];
  }
  for (const auto& [tile, count] : load) EXPECT_LE(count, 2);
}

TEST(ExecutorTest, PipelineComputesProduct) {
  auto pipeline = MakePipeline({ScaleNode("in", 2.0), ScaleNode("mid", 3.0),
                                ScaleNode("out", 5.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{4, 4, 1});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(1));
  ASSERT_TRUE(exec.ok());
  auto outputs = (*exec)->RunWave({{"in", {1.0, 10.0}}});
  ASSERT_TRUE(outputs.ok());
  ASSERT_TRUE(outputs->contains("out"));
  EXPECT_DOUBLE_EQ(outputs->at("out")[0], 30.0);
  EXPECT_DOUBLE_EQ(outputs->at("out")[1], 300.0);
  EXPECT_EQ((*exec)->wave_errors(), 0u);
  EXPECT_GT((*exec)->compute_cost().energy_pj, 0.0);
}

TEST(ExecutorTest, DiamondJoinAccumulates) {
  // a -> b, a -> c, b -> d, c -> d: d receives b(x) + c(x).
  DataflowGraph g;
  ASSERT_TRUE(g.AddNode(ScaleNode("a", 1.0)).ok());
  ASSERT_TRUE(g.AddNode(ScaleNode("b", 2.0)).ok());
  ASSERT_TRUE(g.AddNode(ScaleNode("c", 3.0)).ok());
  ASSERT_TRUE(g.AddNode(ScaleNode("d", 1.0)).ok());
  ASSERT_TRUE(g.AddEdge("a", "b").ok());
  ASSERT_TRUE(g.AddEdge("a", "c").ok());
  ASSERT_TRUE(g.AddEdge("b", "d").ok());
  ASSERT_TRUE(g.AddEdge("c", "d").ok());
  ASSERT_TRUE(g.Validate().ok());
  auto placement = PlaceGraph(g, PlacerParams{4, 4, 1});
  ASSERT_TRUE(placement.ok());
  auto exec =
      DataflowExecutor::Create(SmallExecutor(), g, *placement, Rng(2));
  ASSERT_TRUE(exec.ok());
  auto outputs = (*exec)->RunWave({{"a", {4.0}}});
  ASSERT_TRUE(outputs.ok());
  EXPECT_DOUBLE_EQ(outputs->at("d")[0], 20.0);  // 4*2 + 4*3
}

TEST(ExecutorTest, MultipleWavesIndependent) {
  auto pipeline = MakePipeline({ScaleNode("in", 2.0), ScaleNode("out", 2.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{2, 2, 1});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(3));
  ASSERT_TRUE(exec.ok());
  for (double x : {1.0, 2.0, 3.0}) {
    auto outputs = (*exec)->RunWave({{"in", {x}}});
    ASSERT_TRUE(outputs.ok());
    EXPECT_DOUBLE_EQ(outputs->at("out")[0], 4.0 * x);
  }
}

TEST(ExecutorTest, MissingSourceInputRejected) {
  auto pipeline = MakePipeline({ScaleNode("in", 1.0), ScaleNode("out", 1.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{2, 2, 1});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(4));
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE((*exec)->RunWave({}).ok());
  EXPECT_FALSE((*exec)->RunWave({{"out", {1.0}}}).ok());
}

TEST(ExecutorTest, RejectedWaveDeliversNothing) {
  // "out" sorts after "in", so a wave that delivered before checking would
  // fire "in" and leave its packet queued for the next wave.
  auto pipeline = MakePipeline({ScaleNode("in", 2.0), ScaleNode("out", 5.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{2, 2, 1});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(6));
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->RunWave({{"in", {1.0}}, {"out", {7.0}}}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*exec)->compute_cost().energy_pj, 0.0);

  auto outputs = (*exec)->RunWave({{"in", {3.0}}});
  ASSERT_TRUE(outputs.ok());
  EXPECT_DOUBLE_EQ(outputs->at("out")[0], 30.0);
  EXPECT_EQ((*exec)->wave_errors(), 0u);

  // A name that is no graph node is rejected too, not ignored.
  const double energy_pj = (*exec)->compute_cost().energy_pj;
  EXPECT_EQ((*exec)->RunWave({{"in", {1.0}}, {"zz", {7.0}}}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*exec)->compute_cost().energy_pj, energy_pj);
}

TEST(ExecutorTest, FailedNodeDropsWave) {
  auto pipeline = MakePipeline({ScaleNode("in", 1.0), ScaleNode("out", 1.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{2, 2, 1});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(5));
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE((*exec)->FailNode("out").ok());
  auto outputs = (*exec)->RunWave({{"in", {1.0}}});
  ASSERT_TRUE(outputs.ok());
  EXPECT_TRUE(outputs->empty());
  EXPECT_GT((*exec)->wave_errors(), 0u);
}

TEST(ExecutorTest, OffMeshPlacementRejected) {
  auto pipeline = MakePipeline({ScaleNode("in", 1.0), ScaleNode("out", 1.0)});
  ASSERT_TRUE(pipeline.ok());
  Placement placement;
  placement.tiles = {{"in", {0, 0}}, {"out", {9, 9}}};  // 4x4 mesh
  EXPECT_EQ(DataflowExecutor::Create(SmallExecutor(), *pipeline, placement,
                                     Rng(7))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(ExecutorTest, NodesSharingATileKeepTheirOwnMicroUnits) {
  // Three stages on one tile: each runs its own program on its own slot,
  // and the hand-overs never touch the mesh.
  auto pipeline = MakePipeline({ScaleNode("a", 2.0), ScaleNode("b", 3.0),
                                ScaleNode("c", 5.0)});
  ASSERT_TRUE(pipeline.ok());
  auto placement = PlaceGraph(*pipeline, PlacerParams{1, 1, 3});
  ASSERT_TRUE(placement.ok());
  auto exec = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                       *placement, Rng(8));
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE((*exec)->FailNode("c").ok());
  auto failed = (*exec)->RunWave({{"a", {1.0}}});
  ASSERT_TRUE(failed.ok());
  EXPECT_TRUE(failed->empty());
  EXPECT_EQ((*exec)->noc_telemetry().injected, 0u);

  auto healthy = DataflowExecutor::Create(SmallExecutor(), *pipeline,
                                          *placement, Rng(8));
  ASSERT_TRUE(healthy.ok());
  auto outputs = (*healthy)->RunWave({{"a", {1.0}}});
  ASSERT_TRUE(outputs.ok());
  EXPECT_DOUBLE_EQ(outputs->at("c")[0], 30.0);
  EXPECT_EQ((*healthy)->wave_errors(), 0u);
}

TEST(ExecutorTest, MvmNodeExecutesOnCrossbars) {
  crossbar::MvmEngineParams engine;
  engine.array.rows = 16;
  engine.array.cols = 16;
  engine.array.cell.read_noise_sigma = 0.0;
  engine.array.cell.write_noise_sigma = 0.0;
  engine.array.cell.endurance_cycles = 0;
  engine.array.cell.drift_nu = 0.0;
  engine.array.ir_drop_alpha = 0.0;
  engine.array.adc.bits = 12;

  DataflowGraph g;
  MvmConfig mvm;
  mvm.engine = engine;
  mvm.in_dim = 2;
  mvm.out_dim = 2;
  mvm.weights = {0.5, 0.0, 0.0, 0.5};
  ASSERT_TRUE(g.AddNode(GraphNode{"mvm",
                                  {{arch::OpCode::kMvm, 0.0}},
                                  std::move(mvm)})
                  .ok());
  auto placement = PlaceGraph(g, PlacerParams{2, 2, 1});
  ASSERT_TRUE(placement.ok());
  auto exec =
      DataflowExecutor::Create(SmallExecutor(), g, *placement, Rng(6));
  ASSERT_TRUE(exec.ok());
  auto outputs = (*exec)->RunWave({{"mvm", {1.0, 0.5}}});
  ASSERT_TRUE(outputs.ok());
  EXPECT_NEAR(outputs->at("mvm")[0], 0.5, 0.1);
  EXPECT_NEAR(outputs->at("mvm")[1], 0.25, 0.1);
}

}  // namespace
}  // namespace cim::dataflow
