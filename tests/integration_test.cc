// Cross-module integration tests: neural networks compiled onto the
// dataflow fabric, secured streams with failures and recovery, and the
// SLA rule judging real fabric telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>

#include "arch/fabric.h"
#include "dataflow/executor.h"
#include "dataflow/placer.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "reliability/guardian.h"
#include "serve/service.h"

namespace cim {
namespace {

crossbar::MvmEngineParams QuietEngine() {
  crossbar::MvmEngineParams p;
  p.array.rows = 64;
  p.array.cols = 64;
  p.array.cell.read_noise_sigma = 0.0;
  p.array.cell.write_noise_sigma = 0.0;
  p.array.cell.endurance_cycles = 0;
  p.array.cell.drift_nu = 0.0;
  p.array.ir_drop_alpha = 0.0;
  p.array.adc.bits = 12;
  return p;
}

// Compile a 2-layer MLP into a dataflow graph (one MVM node per layer,
// ReLU fused into the first), place it, execute a wave, and compare with
// the float golden model.
TEST(Integration, MlpCompiledOntoDataflowFabricMatchesGolden) {
  Rng rng(1);
  const nn::Network net = nn::BuildMlp("mlp", {12, 10, 4}, rng, 0.3);

  dataflow::DataflowGraph graph;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const auto& dense = std::get<nn::DenseLayer>(net.layers[i]);
    dataflow::MvmConfig mvm;
    mvm.engine = QuietEngine();
    mvm.in_dim = dense.in_features;
    mvm.out_dim = dense.out_features;
    mvm.weights = dense.weights;
    arch::Program program{{arch::OpCode::kMvm, 0.0}};
    // Biases are zeroed for this comparison (the executor owns the units,
    // so per-node bias slots would be loaded through kCode packets in a
    // full deployment).
    if (dense.activation == nn::Activation::kRelu) {
      program.push_back({arch::OpCode::kRelu, 0.0});
    }
    const std::string name = "layer" + std::to_string(i);
    names.push_back(name);
    ASSERT_TRUE(graph.AddNode(dataflow::GraphNode{name, std::move(program),
                                                  std::move(mvm)})
                    .ok());
    if (i > 0) {
      ASSERT_TRUE(graph.AddEdge(names[i - 1], name).ok());
    }
  }
  ASSERT_TRUE(graph.Validate().ok());

  auto placement = dataflow::PlaceGraph(graph, {4, 4, 1});
  ASSERT_TRUE(placement.ok());
  dataflow::ExecutorParams exec_params;
  exec_params.mesh.width = 4;
  exec_params.mesh.height = 4;
  auto exec = dataflow::DataflowExecutor::Create(exec_params, graph,
                                                 *placement, Rng(2));
  ASSERT_TRUE(exec.ok());

  nn::Network no_bias = net;
  for (auto& layer : no_bias.layers) {
    auto& dense = std::get<nn::DenseLayer>(layer);
    std::fill(dense.bias.begin(), dense.bias.end(), 0.0);
  }

  nn::Tensor input({12});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto golden = nn::Forward(no_bias, input);
  ASSERT_TRUE(golden.ok());

  auto outputs = (*exec)->RunWave({{names.front(), input.vec()}});
  ASSERT_TRUE(outputs.ok());
  ASSERT_TRUE(outputs->contains(names.back()));
  const std::vector<double>& y = outputs->at(names.back());
  ASSERT_EQ(y.size(), golden->size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], (*golden)[i], 0.25) << "output " << i;
  }
  // The wave crossed the mesh (layers on different tiles).
  EXPECT_GT((*exec)->noc_telemetry().delivered, 0u);
}

// Secured, guarded stream surviving a mid-run tile failure: encryption on,
// partitions enforced, guardian redirecting — availability stays 1.0.
TEST(Integration, SecuredGuardedStreamSurvivesTileFailure) {
  arch::FabricParams params;
  params.mesh.width = 4;
  params.mesh.height = 4;
  params.encrypt_data = true;
  params.enforce_partitions = true;
  auto fabric = arch::Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;

  // Everything in one partition.
  for (std::uint16_t x = 0; x < 4; ++x) {
    for (std::uint16_t y = 0; y < 4; ++y) f.partitions().Assign({x, y}, 1);
  }
  for (auto node : {noc::NodeId{0, 0}, noc::NodeId{1, 0}, noc::NodeId{2, 0},
                    noc::NodeId{1, 1}}) {
    auto tile = f.TileAt(node);
    ASSERT_TRUE(tile.ok());
    ASSERT_TRUE((*tile)->micro_unit(0)
                    .LoadProgram({{arch::OpCode::kMulScalar, 2.0}})
                    .ok());
  }

  std::vector<double> results;
  auto guardian = reliability::StreamGuardian::Create(
      &f, 1, {{0, 0}, {1, 0}, {2, 0}}, {{{0, 0}, {1, 1}, {2, 0}}},
      [&](std::vector<double> payload, TimeNs) {
        results.push_back(payload[0]);
      });
  ASSERT_TRUE(guardian.ok());

  for (int i = 0; i < 20; ++i) {
    if (i == 10) {
      ASSERT_TRUE(f.FailTile({1, 0}).ok());
    }
    ASSERT_TRUE((*guardian)->Inject({static_cast<double>(i)}).ok());
    f.queue().Run();
    (*guardian)->Poll();
    f.queue().Run();
    (*guardian)->Poll();
  }
  EXPECT_EQ(results.size(), 20u);
  EXPECT_DOUBLE_EQ((*guardian)->stats().availability(), 1.0);
  EXPECT_EQ((*guardian)->stats().redirections, 1u);
  // Every payload went through three x2 stages.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i] / 8.0, std::round(results[i] / 8.0), 1e-9);
  }
}

// Closed loop: fabric stream latencies feed an SLA window, and the SLA
// rule detects a violation when the stream is lengthened and clears after
// it is shortened (capacity "added").
TEST(Integration, SlaClosedLoopReactsToFabricLatency) {
  arch::FabricParams params;
  params.mesh.width = 6;
  params.mesh.height = 2;
  auto fabric = arch::Fabric::Create(params);
  ASSERT_TRUE(fabric.ok());
  arch::Fabric& f = **fabric;
  for (std::uint16_t x = 0; x < 6; ++x) {
    for (std::uint16_t y = 0; y < 2; ++y) {
      auto tile = f.TileAt({x, y});
      ASSERT_TRUE(tile.ok());
      ASSERT_TRUE((*tile)->micro_unit(0).LoadProgram({}).ok());
    }
  }
  serve::SlaWindow window;

  const auto run_batch = [&](std::uint64_t stream) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(f.InjectData(stream, {1.0}).ok());
      f.queue().Run();
    }
    const arch::StreamStats* stats = f.StatsFor(stream);
    ASSERT_NE(stats, nullptr);
    window.Add(stats->end_to_end_latency_ns.mean(), /*was_degraded=*/false);
  };

  // Long path first: violates a tight target.
  ASSERT_TRUE(f.ConfigureStream(
                   1, {{0, 0}, {5, 0}, {0, 1}, {5, 1}, {0, 0}, {5, 0}})
                  .ok());
  auto probe_stats = [&] {
    run_batch(1);
    for (int i = 0; i < 7; ++i) {
      window.Add(f.StatsFor(1)->end_to_end_latency_ns.mean(), false);
    }
  };
  const arch::StreamStats* warm = nullptr;
  run_batch(1);
  warm = f.StatsFor(1);
  ASSERT_NE(warm, nullptr);
  const double long_latency = warm->end_to_end_latency_ns.mean();
  serve::SlaLoopParams sla;
  sla.target_latency_ns = long_latency * 0.5;
  sla.release_fraction = 0.25;
  sla.min_samples = 8;
  ASSERT_TRUE(sla.Validate().ok());
  probe_stats();
  EXPECT_EQ(serve::JudgeSla(sla, window), serve::SlaAction::kScaleUp);

  // "Add capacity": shorten the path, latency falls under target.
  ASSERT_TRUE(f.RedirectStream(1, {{0, 0}, {1, 0}}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(f.InjectData(1, {1.0}).ok());
    f.queue().Run();
  }
  // Short-path latency samples (approximate with fresh mean of the merged
  // stat; the mean falls well below the long-path latency).
  const double merged = f.StatsFor(1)->end_to_end_latency_ns.min();
  for (int i = 0; i < 8; ++i) window.Add(merged, false);
  EXPECT_EQ(serve::JudgeSla(sla, window), serve::SlaAction::kScaleDown);
}

// The DPE accelerator with realistic (noisy) device parameters still
// classifies like the golden model most of the time — an end-to-end
// accuracy check across device -> crossbar -> dpe -> nn.
TEST(Integration, NoisyDpeKeepsTopOneAgreement) {
  Rng rng(3);
  const nn::Network net = nn::BuildMlp("cls", {24, 32, 6}, rng, 0.3);
  dpe::DpeParams params = dpe::DpeParams::Isaac();
  params.array.cell.read_noise_sigma = 0.02;  // realistic noise
  auto acc = dpe::DpeAccelerator::Create(params, net, Rng(4));
  ASSERT_TRUE(acc.ok());

  int agree = 0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    nn::Tensor input({24});
    for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
    auto golden = nn::Forward(net, input);
    auto analog = (*acc)->Infer(input);
    ASSERT_TRUE(golden.ok());
    ASSERT_TRUE(analog.ok());
    const auto argmax = [](const nn::Tensor& tensor) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < tensor.size(); ++i) {
        if (tensor[i] > tensor[best]) best = i;
      }
      return best;
    };
    if (argmax(*golden) == argmax(analog->output)) ++agree;
  }
  EXPECT_GE(agree, kTrials * 3 / 4) << "top-1 agreement too low";
}

}  // namespace
}  // namespace cim
