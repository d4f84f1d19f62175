// Fabric-scale co-simulation (src/fabric): partition correctness, the
// golden bit-for-bit contract against a single accelerator, thread-count
// bit-identity of the epoch-barrier scheme, and packet conservation under
// injected faults. Labeled "fabric" + "concurrency" in CMake so every CI
// leg (tsan included) runs it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "boundary_values.h"
#include "common/hash.h"
#include "dpe/accelerator.h"
#include "fabric/cosim.h"
#include "fabric/partition.h"
#include "nn/network.h"
#include "noc/mesh.h"

namespace cim::fabric {
namespace {

nn::Network TwoLayerMlp(std::uint64_t seed = 7) {
  Rng rng(seed);
  return nn::BuildMlp("fab", {16, 24, 10}, rng);
}

FabricParams NoiselessParams() {
  FabricParams p;
  p.dpe.array.cell.read_noise_sigma = 0.0;
  p.dpe.array.cell.write_noise_sigma = 0.0;
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

void ExpectResultsBitIdentical(const dpe::InferResult& a,
                               const dpe::InferResult& b) {
  ASSERT_EQ(a.output.size(), b.output.size());
  for (std::size_t i = 0; i < a.output.size(); ++i) {
    EXPECT_EQ(a.output[i], b.output[i]) << "output " << i;
  }
  EXPECT_EQ(a.cost.latency_ns, b.cost.latency_ns);
  EXPECT_EQ(a.cost.energy_pj, b.cost.energy_pj);
  EXPECT_EQ(a.cost.bytes_moved, b.cost.bytes_moved);
  EXPECT_EQ(a.cost.operations, b.cost.operations);
  EXPECT_EQ(a.noc_cost.latency_ns, b.noc_cost.latency_ns);
  EXPECT_EQ(a.noc_cost.energy_pj, b.noc_cost.energy_pj);
  EXPECT_EQ(a.fault_report.degraded, b.fault_report.degraded);
}

// --- partitioner ----------------------------------------------------------

// Validate only: an out-of-range count must never reach a thread pool.
TEST(FabricParamsTest, WorkerThreadsBounded) {
  FabricParams p;
  for (const std::size_t threads : {std::size_t{0}, kMaxWorkerThreads}) {
    p.worker_threads = threads;
    EXPECT_TRUE(p.Validate().ok()) << threads;
  }
  for (const std::size_t threads :
       {kMaxWorkerThreads + 1, std::size_t{1} << 40, ~std::size_t{0}}) {
    p.worker_threads = threads;
    EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << threads;
  }
}

// Validate only: the grid is the co-simulated mesh, so it shares the
// mesh's 65536-node bound, and no count may exceed the grid.
TEST(FabricParamsTest, GridAndCountsBounded) {
  FabricParams p;
  p.partition.grid_width = 256;
  p.partition.grid_height = 256;
  EXPECT_TRUE(p.Validate().ok());
  p.partition.grid_width = 65535;
  p.partition.grid_height = 65535;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
  p = FabricParams{};  // 2 x 2
  p.partition.column_splits = 4;
  EXPECT_TRUE(p.Validate().ok());
  p.partition.column_splits = std::size_t{1} << 63;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
  p.partition.column_splits = 1;
  p.partition.stages = 5;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
}

// Boundary fuzz of the partition fields (boundary_values.h; worker_threads
// is covered above, Validate only). Every accepted value must survive
// Create plus one InferBatch with finite outputs and costs; over-bound
// grids are only validated.
TEST(FabricParamsTest, EveryAcceptedPartitionBoundaryRuns) {
  const nn::Network net = TwoLayerMlp();
  Rng rng(41);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 2, rng);
  std::vector<fuzz::FuzzValue<FabricPartitionParams>> values;
  // The other side stays 2, so 32768 is the 65536-node bound; the 2 x 2
  // grid holds 4 tiles, and the MLP has 2 MVM layers.
  for (const auto& field :
       {CIM_FIELD_VALUES(FabricPartitionParams, grid_width, 1, 32768),
        CIM_FIELD_VALUES(FabricPartitionParams, grid_height, 1, 32768),
        CIM_FIELD_VALUES(FabricPartitionParams, stages, 1, 2, 4),
        CIM_FIELD_VALUES(FabricPartitionParams, column_splits, 1, 2, 4)}) {
    values.insert(values.end(), field.begin(), field.end());
  }
  std::size_t ran = 0;
  std::size_t rejected = 0;
  for (const auto& value : values) {
    FabricParams params = NoiselessParams();
    params.worker_threads = 1;
    value.apply(params.partition);
    if (!params.Validate().ok()) {
      ++rejected;
      continue;
    }
    auto fabric = FabricCoSim::Create(params, net);
    if (!fabric.ok()) {
      // A valid grid the plan does not fit (too many stages or splits).
      EXPECT_EQ(fabric.status().code(), ErrorCode::kInvalidArgument)
          << value.label;
      continue;
    }
    ++ran;
    auto results = (*fabric)->InferBatch(inputs);
    ASSERT_TRUE(results.ok()) << value.label;
    for (const dpe::InferResult& r : *results) {
      for (const double y : r.output.vec()) {
        EXPECT_TRUE(std::isfinite(y)) << value.label;
      }
      EXPECT_TRUE(std::isfinite(r.cost.latency_ns) &&
                  std::isfinite(r.cost.energy_pj) && r.cost.latency_ns > 0.0)
          << value.label;
    }
  }
  EXPECT_GT(ran, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(PartitionTest, DefaultsToOneStagePerMvmLayer) {
  const nn::Network net = TwoLayerMlp();
  FabricPartitionParams params;  // 2x2 grid, stages=0, column_splits=1
  auto plan = PartitionNetwork(net, params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stage_count, 2u);
  EXPECT_EQ(plan->splits_per_stage, 1u);
  ASSERT_EQ(plan->tiles.size(), 2u);
  EXPECT_EQ(plan->stage_input_shape[0], std::vector<std::size_t>{16});
  EXPECT_EQ(plan->stage_input_shape[1], std::vector<std::size_t>{24});
  EXPECT_EQ(plan->stage_out_dim[0], 24u);
  EXPECT_EQ(plan->stage_out_dim[1], 10u);
  EXPECT_EQ(plan->output_shape, std::vector<std::size_t>{10});
  // Row-major placement on the grid.
  EXPECT_EQ(plan->tiles[0].node, (noc::NodeId{0, 0}));
  EXPECT_EQ(plan->tiles[1].node, (noc::NodeId{1, 0}));
}

TEST(PartitionTest, ColumnSplitsShardDenseOutputs) {
  const nn::Network net = TwoLayerMlp();
  FabricPartitionParams params;
  params.column_splits = 2;
  auto plan = PartitionNetwork(net, params);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tiles.size(), 4u);
  // Stage 0 has 24 outputs: shards [0, 12) and [12, 24).
  EXPECT_EQ(plan->tile(0, 0).out_begin, 0u);
  EXPECT_EQ(plan->tile(0, 0).out_count, 12u);
  EXPECT_EQ(plan->tile(0, 1).out_begin, 12u);
  EXPECT_EQ(plan->tile(0, 1).out_count, 12u);
  // Stage 1 has 10 outputs: shards [0, 5) and [5, 10).
  EXPECT_EQ(plan->tile(1, 0).out_count, 5u);
  EXPECT_EQ(plan->tile(1, 1).out_begin, 5u);
  // Every subnet revalidates.
  for (const TileSpec& t : plan->tiles) {
    EXPECT_TRUE(t.subnet.Validate().ok()) << t.subnet.name;
  }
}

TEST(PartitionTest, RejectsGridOverflow) {
  const nn::Network net = TwoLayerMlp();
  FabricPartitionParams params;
  params.grid_width = 1;
  params.grid_height = 1;  // 2 stages need 2 tiles
  EXPECT_EQ(PartitionNetwork(net, params).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(PartitionTest, RejectsMoreStagesThanMvmLayers) {
  const nn::Network net = TwoLayerMlp();
  FabricPartitionParams params;
  params.stages = 3;
  EXPECT_EQ(PartitionNetwork(net, params).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(PartitionTest, RejectsColumnSplitOfMultiLayerStage) {
  Rng rng(9);
  // One stage spanning both dense layers cannot be column-split.
  const nn::Network net = nn::BuildMlp("m", {8, 8, 4}, rng);
  FabricPartitionParams params;
  params.stages = 1;
  params.column_splits = 2;
  EXPECT_EQ(PartitionNetwork(net, params).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- golden: fabric output == single accelerator output -------------------

// A seeded property over partitions: every valid stages x column_splits
// combination (column_splits in {1, 2, 3}) of a three-layer MLP, and every
// stage count of a 1x12x12 CNN at one split, on an exact-fit grid and on a
// random larger one whose extra nodes hold no plan tile, must reproduce one
// noiseless accelerator's outputs bit for bit, shape included.
TEST(FabricCoSimTest, NoiselessPartitionMatchesSingleAcceleratorBitForBit) {
  Rng net_rng(7);
  const nn::Network mlp = nn::BuildMlp("fab3", {16, 24, 20, 10}, net_rng);
  const nn::Network cnn = nn::BuildCnn("cnn", 1, 12, 12, 10, net_rng);
  Rng rng(0xFAB5);
  std::size_t runs = 0;
  for (const nn::Network* net : {&mlp, &cnn}) {
    auto profiles = nn::ProfileNetwork(*net);
    ASSERT_TRUE(profiles.ok());
    std::size_t mvm_layers = 0;
    for (const nn::LayerProfile& layer : *profiles) {
      if (layer.kind != nn::LayerKind::kPool) ++mvm_layers;
    }
    dpe::DpeParams single = NoiselessParams().dpe;
    single.worker_threads = 1;
    auto accel = dpe::DpeAccelerator::Create(single, *net, Rng(1));
    ASSERT_TRUE(accel.ok());
    const std::vector<nn::Tensor> inputs =
        MakeInputs(net->input_shape, 3, rng);
    std::vector<dpe::InferResult> reference;
    for (const nn::Tensor& input : inputs) {
      auto r = (*accel)->Infer(input);
      ASSERT_TRUE(r.ok());
      reference.push_back(std::move(*r));
    }
    const std::size_t max_splits = net == &mlp ? 3 : 1;
    for (std::size_t stages = 1; stages <= mvm_layers; ++stages) {
      for (std::size_t splits = 1; splits <= max_splits; ++splits) {
        // A split stage must hold exactly one dense layer.
        if (splits > 1 && stages != mvm_layers) continue;
        const std::size_t tiles = stages * splits;
        const std::size_t wide = tiles + 1 + rng.NextBounded(4);
        const std::size_t width = 1 + rng.NextBounded(wide);
        for (const auto& [w, h] :
             {std::pair{tiles, std::size_t{1}},
              std::pair{width, (wide + width - 1) / width}}) {
          const std::string what =
              net->name + " stages=" + std::to_string(stages) +
              " splits=" + std::to_string(splits) + " grid=" +
              std::to_string(w) + "x" + std::to_string(h);
          FabricParams params = NoiselessParams();
          params.partition.grid_width = static_cast<std::uint16_t>(w);
          params.partition.grid_height = static_cast<std::uint16_t>(h);
          params.partition.stages = stages;
          params.partition.column_splits = splits;
          params.worker_threads = 1 + rng.NextBounded(3);
          params.seed = rng.NextU64();
          auto fabric = FabricCoSim::Create(params, *net);
          ASSERT_TRUE(fabric.ok()) << what << ": "
                                   << fabric.status().message();
          auto results = (*fabric)->InferBatch(inputs);
          ASSERT_TRUE(results.ok()) << what;
          ASSERT_EQ(results->size(), inputs.size()) << what;
          ++runs;
          for (std::size_t b = 0; b < inputs.size(); ++b) {
            const nn::Tensor& out = (*results)[b].output;
            EXPECT_EQ(out.shape(), reference[b].output.shape()) << what;
            ASSERT_EQ(out.size(), reference[b].output.size()) << what;
            for (std::size_t i = 0; i < out.size(); ++i) {
              EXPECT_EQ(out[i], reference[b].output[i])
                  << what << " element " << b << " output " << i;
            }
            EXPECT_EQ((*results)[b].fault_report.degraded, 0u) << what;
          }
        }
      }
    }
  }
  EXPECT_GE(runs, 10u);
}

// --- NoC cost shows up in InferResult -------------------------------------

TEST(FabricCoSimTest, NocCostIsNonzeroAndFoldedIntoTotal) {
  const nn::Network net = TwoLayerMlp();
  FabricParams params = NoiselessParams();
  params.worker_threads = 1;
  auto fabric = FabricCoSim::Create(params, net);
  ASSERT_TRUE(fabric.ok());

  Rng rng(33);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 3, rng);
  auto results = (*fabric)->InferBatch(inputs);
  ASSERT_TRUE(results.ok());
  for (const dpe::InferResult& r : *results) {
    // Every element crosses exactly one stage boundary over the mesh.
    EXPECT_GT(r.noc_cost.latency_ns, 0.0);
    EXPECT_GT(r.noc_cost.energy_pj, 0.0);
    EXPECT_GT(r.noc_cost.bytes_moved, 0.0);
    // The NoC share is folded into the headline cost.
    EXPECT_GE(r.cost.latency_ns, r.noc_cost.latency_ns);
    EXPECT_GE(r.cost.energy_pj, r.noc_cost.energy_pj);
    EXPECT_EQ(r.fault_report.degraded, 0u);
  }
  const noc::NocTelemetry& t = (*fabric)->noc_telemetry();
  EXPECT_EQ(t.injected, t.delivered);
  EXPECT_EQ(t.dropped, 0u);
}

// --- determinism: bit-identical at any worker_threads ---------------------

class FabricThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FabricThreads, BatchIsBitIdenticalToSerialRun) {
  const nn::Network net = TwoLayerMlp();
  Rng rng(41);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 6, rng);

  // Noise left ON: the contract is that host scheduling cannot influence
  // any value, noise streams included.
  FabricParams serial;
  serial.partition.column_splits = 2;
  serial.worker_threads = 1;
  FabricParams threaded = serial;
  threaded.worker_threads = GetParam();

  auto a = FabricCoSim::Create(serial, net);
  auto b = FabricCoSim::Create(threaded, net);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = (*a)->InferBatch(inputs);
  auto rb = (*b)->InferBatch(inputs);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->size(), rb->size());
  for (std::size_t i = 0; i < ra->size(); ++i) {
    ExpectResultsBitIdentical((*ra)[i], (*rb)[i]);
  }
  // Telemetry and the virtual clock agree too.
  EXPECT_EQ((*a)->noc_telemetry().injected, (*b)->noc_telemetry().injected);
  EXPECT_EQ((*a)->noc_telemetry().delivered,
            (*b)->noc_telemetry().delivered);
  EXPECT_EQ((*a)->now().ns, (*b)->now().ns);
  EXPECT_EQ((*a)->epochs_run(), (*b)->epochs_run());
}

// Create builds (and programs) the tile accelerators through the pool, so
// the pin covers it: FNV-1a over one InferBatch's outputs, costs, NoC costs
// and degrade counts, computed while Create still built one tile after
// another.
TEST_P(FabricThreads, CreateThenInferBatchBytesArePinned) {
  const nn::Network net = TwoLayerMlp();
  Rng rng(43);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 4, rng);
  FabricParams params;
  params.partition.column_splits = 2;
  params.worker_threads = GetParam();
  auto fabric = FabricCoSim::Create(params, net);
  ASSERT_TRUE(fabric.ok());
  auto results = (*fabric)->InferBatch(inputs);
  ASSERT_TRUE(results.ok());
  std::uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](double v) {
    FnvMixU64(h, std::bit_cast<std::uint64_t>(v));
  };
  for (const dpe::InferResult& r : *results) {
    for (const double v : r.output.vec()) mix(v);
    for (const CostReport* cost : {&r.cost, &r.noc_cost}) {
      mix(cost->latency_ns);
      mix(cost->energy_pj);
      mix(cost->bytes_moved);
      FnvMixU64(h, cost->operations);
    }
    FnvMixU64(h, r.fault_report.degraded);
  }
  EXPECT_EQ(h, 0xCCFAD99686B6F3F2ULL) << "got 0x" << std::hex << std::uppercase << h;
}

INSTANTIATE_TEST_SUITE_P(Threads, FabricThreads,
                         ::testing::Values(1, 2, 8));

// --- packet conservation under faults -------------------------------------

class FabricFaults : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FabricFaults, ConservationAndGracefulDegradeUnderFailures) {
  const nn::Network net = TwoLayerMlp();
  FabricParams params = NoiselessParams();
  params.partition.column_splits = 2;
  params.worker_threads = GetParam();
  auto fabric = FabricCoSim::Create(params, net);
  ASSERT_TRUE(fabric.ok());

  Rng rng(51);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 4, rng);

  // Healthy warm-up batch, then cut a link and kill a consumer tile.
  auto healthy = (*fabric)->InferBatch(inputs);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(
      (*fabric)->SetLinkFailed({0, 0}, noc::Direction::kEast, true).ok());
  ASSERT_TRUE(
      (*fabric)
          ->SetNodeFailed((*fabric)->plan().tile(1, 1).node, true)
          .ok());
  auto degraded = (*fabric)->InferBatch(inputs);
  ASSERT_TRUE(degraded.ok());

  // Every packet is accounted for: injected == delivered + dropped.
  const noc::NocTelemetry& t = (*fabric)->noc_telemetry();
  EXPECT_EQ(t.injected, t.delivered + t.dropped);
  EXPECT_GT(t.dropped, 0u);

  // Lost activations degrade the element instead of failing the batch:
  // the dead tile's input slice zero-fills and degraded counts the drops.
  std::uint64_t total_degraded = 0;
  for (const dpe::InferResult& r : *degraded) {
    ASSERT_EQ(r.output.size(), 10u);
    total_degraded += r.fault_report.degraded;
  }
  EXPECT_GT(total_degraded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, FabricFaults,
                         ::testing::Values(1, 2, 8));

// --- fault schedules are thread-count invariant too -----------------------

TEST(FabricCoSimTest, FaultScheduleBitIdenticalAcrossThreadCounts) {
  const nn::Network net = TwoLayerMlp();
  Rng rng(61);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 5, rng);

  auto run = [&](std::size_t threads) {
    FabricParams params = NoiselessParams();
    params.partition.column_splits = 2;
    params.worker_threads = threads;
    auto fabric = FabricCoSim::Create(params, net);
    EXPECT_TRUE(fabric.ok());
    EXPECT_TRUE(
        (*fabric)
            ->SetNodeFailed((*fabric)->plan().tile(1, 0).node, true)
            .ok());
    auto results = (*fabric)->InferBatch(inputs);
    EXPECT_TRUE(results.ok());
    return std::make_pair(std::move(*results),
                          (*fabric)->noc_telemetry().dropped);
  };

  auto [serial, serial_dropped] = run(1);
  auto [threaded, threaded_dropped] = run(8);
  EXPECT_EQ(serial_dropped, threaded_dropped);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExpectResultsBitIdentical(serial[i], threaded[i]);
  }
}

}  // namespace
}  // namespace cim::fabric
