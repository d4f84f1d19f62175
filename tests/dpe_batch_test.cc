// Determinism contract of the batched, multi-threaded DPE inference
// runtime: InferBatch(N inputs) is bit-identical to N sequential Infer
// calls, and every result is bit-identical at every worker_threads setting.
// Labeled "concurrency" in CMake so the tsan CI leg runs these under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace cim::dpe
