// Determinism contract of the batched, multi-threaded DPE inference
// runtime: InferBatch(N inputs) is bit-identical to N sequential Infer
// calls, and every result is bit-identical at every worker_threads setting.
// Labeled "concurrency" in CMake so the tsan CI leg runs these under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/hash.h"
#include "dpe/accelerator.h"
#include "nn/network.h"

namespace cim::dpe {
namespace {

// Noise left ON (unlike most dpe_test cases): the point is that the noise
// streams themselves are scheduling-independent.
DpeParams NoisyParams(std::size_t worker_threads) {
  DpeParams p = DpeParams::Isaac();
  p.array.cell.read_noise_sigma = 0.02;
  p.worker_threads = worker_threads;
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

class BatchEqualsSequential : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(BatchEqualsSequential, OnNoisyMlp) {
  const std::size_t threads = GetParam();
  Rng rng(21);
  const nn::Network net = nn::BuildMlp("b", {32, 48, 10}, rng, 0.3);
  const std::vector<nn::Tensor> inputs = MakeInputs({32}, 5, rng);

  // Two accelerators programmed from the same seed: one serves the batch,
  // one serves the equivalent sequence of Infer calls.
  auto batched = DpeAccelerator::Create(NoisyParams(threads), net, Rng(22));
  auto serial = DpeAccelerator::Create(NoisyParams(1), net, Rng(22));
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(serial.ok());

  auto results = (*batched)->InferBatch(inputs);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    auto reference = (*serial)->Infer(inputs[b]);
    ASSERT_TRUE(reference.ok());
    ExpectBitIdentical((*results)[b], *reference);
  }
}

TEST_P(BatchEqualsSequential, OnNoisyTinyCnn) {
  const std::size_t threads = GetParam();
  Rng rng(23);
  const nn::Network net = nn::BuildCnn("bc", 1, 8, 8, 4, rng);
  const std::vector<nn::Tensor> inputs = MakeInputs({1, 8, 8}, 3, rng);

  auto batched = DpeAccelerator::Create(NoisyParams(threads), net, Rng(24));
  auto serial = DpeAccelerator::Create(NoisyParams(1), net, Rng(24));
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(serial.ok());

  auto results = (*batched)->InferBatch(inputs);
  ASSERT_TRUE(results.ok());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    auto reference = (*serial)->Infer(inputs[b]);
    ASSERT_TRUE(reference.ok());
    ExpectBitIdentical((*results)[b], *reference);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BatchEqualsSequential,
                         ::testing::Values(1u, 2u, 8u));

TEST(InferBatchTest, ThreadCountDoesNotChangeResults) {
  Rng rng(25);
  const nn::Network net = nn::BuildMlp("t", {24, 24, 6}, rng, 0.3);
  const std::vector<nn::Tensor> inputs = MakeInputs({24}, 4, rng);

  auto one = DpeAccelerator::Create(NoisyParams(1), net, Rng(26));
  auto eight = DpeAccelerator::Create(NoisyParams(8), net, Rng(26));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  auto r1 = (*one)->InferBatch(inputs);
  auto r8 = (*eight)->InferBatch(inputs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    ExpectBitIdentical((*r1)[b], (*r8)[b]);
  }
}

TEST(InferBatchTest, InferAdvancesTheSameStreamAsBatching) {
  // Infer, then InferBatch: the batch must continue the noise streams
  // exactly where the Infer left them — i.e. the whole history matches one
  // long sequence of Infer calls.
  Rng rng(27);
  const nn::Network net = nn::BuildMlp("s", {16, 16, 4}, rng, 0.3);
  const std::vector<nn::Tensor> inputs = MakeInputs({16}, 3, rng);

  auto mixed = DpeAccelerator::Create(NoisyParams(4), net, Rng(28));
  auto sequential = DpeAccelerator::Create(NoisyParams(1), net, Rng(28));
  ASSERT_TRUE(mixed.ok());
  ASSERT_TRUE(sequential.ok());

  auto first = (*mixed)->Infer(inputs[0]);
  ASSERT_TRUE(first.ok());
  auto rest = (*mixed)->InferBatch(
      std::span<const nn::Tensor>(inputs).subspan(1));
  ASSERT_TRUE(rest.ok());

  std::vector<InferResult> mixed_results;
  mixed_results.push_back(std::move(first.value()));
  for (auto& r : rest.value()) mixed_results.push_back(std::move(r));

  for (std::size_t b = 0; b < inputs.size(); ++b) {
    auto reference = (*sequential)->Infer(inputs[b]);
    ASSERT_TRUE(reference.ok());
    ExpectBitIdentical(mixed_results[b], *reference);
  }
}

TEST(InferBatchTest, EmptyBatchReturnsEmpty) {
  Rng rng(29);
  const nn::Network net = nn::BuildMlp("e", {8, 4}, rng, 0.3);
  auto acc = DpeAccelerator::Create(NoisyParams(2), net, Rng(30));
  ASSERT_TRUE(acc.ok());
  auto results = (*acc)->InferBatch({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(InferBatchTest, ShapeMismatchRejectedWithoutAdvancingStreams) {
  Rng rng(31);
  const nn::Network net = nn::BuildMlp("m", {8, 4}, rng, 0.3);
  auto acc = DpeAccelerator::Create(NoisyParams(2), net, Rng(32));
  auto reference = DpeAccelerator::Create(NoisyParams(1), net, Rng(32));
  ASSERT_TRUE(acc.ok());
  ASSERT_TRUE(reference.ok());

  std::vector<nn::Tensor> bad = MakeInputs({8}, 1, rng);
  bad.push_back(nn::Tensor({9}));
  EXPECT_FALSE((*acc)->InferBatch(bad).ok());

  // The failed batch consumed no noise-stream calls: the next Infer still
  // matches a fresh accelerator's first call.
  nn::Tensor probe = MakeInputs({8}, 1, rng)[0];
  auto after = (*acc)->Infer(probe);
  auto fresh = (*reference)->Infer(probe);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(fresh.ok());
  ExpectBitIdentical(*after, *fresh);
}

TEST(InferBatchTest, PoolWorkersFollowWorkerThreads) {
  Rng rng(33);
  const nn::Network net = nn::BuildMlp("p", {8, 4}, rng, 0.3);
  auto serial = DpeAccelerator::Create(NoisyParams(1), net, Rng(34));
  auto parallel = DpeAccelerator::Create(NoisyParams(4), net, Rng(34));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  // worker_threads counts the calling thread too, so the serial setting
  // holds a pool with no workers.
  EXPECT_EQ((*serial)->thread_pool()->worker_count(), 0u);
  EXPECT_EQ((*parallel)->thread_pool()->worker_count(), 3u);
}

// --- Programming at any thread count ----------------------------------------
//
// Create programs every engine tile through the pool and folds
// program_cost() in (layer, tile) order, so the cost and every programmed
// cell are the same at any worker_threads. A quiet Infer reads every
// programmed array: its output and cost pin the cells. The checksum (FNV-1a
// over program_cost()'s energy, latency and operations, then the Infer's
// outputs and cost) was computed while Create still programmed one tile
// after another; program_cost()'s bytes are the level matrices that reached
// the arrays.

void MixDouble(std::uint64_t& h, double v) {
  FnvMixU64(h, std::bit_cast<std::uint64_t>(v));
}

struct ProgramRun {
  std::uint64_t checksum = kFnvOffsetBasis;
  double bytes_moved = 0.0;
  double level_bytes = 0.0;  // arrays_used x one array's level matrix
};

ProgramRun ProgramAndInfer(const nn::Network& net, bool fault_tolerance,
                           std::size_t worker_threads) {
  DpeParams p = DpeParams::Isaac();
  p.array.cell.read_noise_sigma = 0.0;
  p.worker_threads = worker_threads;
  p.fault_tolerance.enabled = fault_tolerance;
  p.fault_tolerance.spare_tiles = fault_tolerance ? 2 : 0;
  auto acc = DpeAccelerator::Create(p, net, Rng(0xC0DE));
  CIM_CHECK(acc.ok());
  ProgramRun run;
  const CostReport& cost = (*acc)->program_cost();
  MixDouble(run.checksum, cost.energy_pj);
  MixDouble(run.checksum, cost.latency_ns);
  FnvMixU64(run.checksum, cost.operations);
  run.bytes_moved = cost.bytes_moved;
  run.level_bytes = static_cast<double>((*acc)->arrays_used()) *
                    static_cast<double>(p.array.rows * p.array.cols) *
                    static_cast<double>(p.array.cell.cell_bits) / 8.0;

  Rng rng(0xFEED);
  nn::Tensor input(net.input_shape);
  for (double& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto result = (*acc)->Infer(input);
  CIM_CHECK(result.ok());
  for (const double v : result->output.vec()) MixDouble(run.checksum, v);
  MixDouble(run.checksum, result->cost.energy_pj);
  MixDouble(run.checksum, result->cost.latency_ns);
  FnvMixU64(run.checksum, result->cost.operations);
  return run;
}

TEST(ProgramThreads, CreateBytesArePinnedAtEveryThreadCount) {
  Rng mlp_rng(61);
  const nn::Network mlp =
      nn::BuildMlp("pin-mlp", {192, 256, 128, 32}, mlp_rng, 0.16);
  Rng cnn_rng(62);
  const nn::Network cnn = nn::BuildCnn("pin-cnn", 1, 12, 12, 10, cnn_rng);
  struct Pin {
    const nn::Network* net;
    bool fault_tolerance;
    std::uint64_t checksum;
  };
  const std::vector<Pin> pins = {
      {&mlp, false, 0x00A4E4089997CC20ULL},
      {&mlp, true, 0x545133A3CCC82A6FULL},
      {&cnn, false, 0xFC984D697F3C6C6DULL},
      {&cnn, true, 0x4BD7D4CFB2A055AAULL},
  };
  for (const Pin& pin : pins) {
    for (const std::size_t threads : {1, 2, 8}) {
      const ProgramRun run =
          ProgramAndInfer(*pin.net, pin.fault_tolerance, threads);
      const std::string what = pin.net->name + " ft " +
                               std::to_string(pin.fault_tolerance) +
                               " threads " + std::to_string(threads);
      EXPECT_EQ(run.checksum, pin.checksum)
          << what << ": got 0x" << std::hex << std::uppercase
          << run.checksum;
      EXPECT_EQ(run.bytes_moved, run.level_bytes) << what;
      EXPECT_GT(run.bytes_moved, 0.0) << what;
    }
  }
}

}  // namespace
}  // namespace cim::dpe
