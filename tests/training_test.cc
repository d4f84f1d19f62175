// Tests for in-situ training: sparse weight updates and mixed-signal SGD
// convergence on the analog arrays.
#include <gtest/gtest.h>

#include <cmath>

#include "dpe/training.h"

namespace cim::dpe {
namespace {

crossbar::MvmEngineParams QuietEngine(std::size_t n = 32) {
  crossbar::MvmEngineParams p;
  p.array.rows = n;
  p.array.cols = n;
  p.array.cell.read_noise_sigma = 0.0;
  p.array.cell.write_noise_sigma = 0.0;
  p.array.cell.endurance_cycles = 0;
  p.array.cell.drift_nu = 0.0;
  p.array.ir_drop_alpha = 0.0;
  p.array.adc.bits = 12;
  return p;
}

TEST(UpdateWeightsTest, NoChangeCostsNothing) {
  auto engine = crossbar::MvmEngine::Create(QuietEngine(), 8, 8, Rng(1));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> w(64, 0.25);
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  auto update = engine->UpdateWeights(w);
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->operations, 0u);
  EXPECT_DOUBLE_EQ(update->latency_ns, 0.0);
}

TEST(UpdateWeightsTest, SparseChangeRewritesFewCells) {
  auto engine = crossbar::MvmEngine::Create(QuietEngine(), 8, 8, Rng(2));
  ASSERT_TRUE(engine.ok());
  std::vector<double> w(64, 0.25);
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  w[10] = -0.5;  // one weight flips sign: touches both planes' digits
  auto update = engine->UpdateWeights(w);
  ASSERT_TRUE(update.ok());
  EXPECT_GT(update->operations, 0u);
  EXPECT_LE(update->operations, 8u);  // at most every slice of both planes
  // The engine now computes with the updated weight.
  std::vector<double> x(8, 0.0);
  x[1] = 1.0;  // row 1 selects weights w[8..15]
  auto y = engine->Compute(x);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(y->y[2], -0.5, 0.05);  // w[1*8+2] == w[10]
}

TEST(UpdateWeightsTest, UpdateMatchesFullReprogramResult) {
  Rng data_rng(3);
  std::vector<double> w0(16 * 16), w1(16 * 16);
  for (auto& v : w0) v = data_rng.Uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < w1.size(); ++i) {
    w1[i] = data_rng.Bernoulli(0.3) ? data_rng.Uniform(-1.0, 1.0) : w0[i];
  }
  auto updated = crossbar::MvmEngine::Create(QuietEngine(), 16, 16, Rng(4));
  auto reprogrammed =
      crossbar::MvmEngine::Create(QuietEngine(), 16, 16, Rng(4));
  ASSERT_TRUE(updated.ok());
  ASSERT_TRUE(reprogrammed.ok());
  ASSERT_TRUE(updated->ProgramWeights(w0).ok());
  ASSERT_TRUE(updated->UpdateWeights(w1).ok());
  ASSERT_TRUE(reprogrammed->ProgramWeights(w1).ok());

  std::vector<double> x(16);
  for (auto& v : x) v = data_rng.Uniform(0.0, 1.0);
  auto golden_updated = updated->GoldenCompute(x);
  auto golden_reprogrammed = reprogrammed->GoldenCompute(x);
  ASSERT_TRUE(golden_updated.ok());
  ASSERT_TRUE(golden_reprogrammed.ok());
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_DOUBLE_EQ(golden_updated->at(c), golden_reprogrammed->at(c));
  }

  // The golden product reads only the weight codes; the analog paths read
  // the arrays, so a digit on the wrong plane shows up here. Some weights
  // must flip sign for that to be exercised.
  std::size_t sign_flips = 0;
  for (std::size_t i = 0; i < w0.size(); ++i) {
    if ((w0[i] > 0.05 && w1[i] < -0.05) || (w0[i] < -0.05 && w1[i] > 0.05)) {
      ++sign_flips;
    }
  }
  ASSERT_GT(sign_flips, 0u);
  const auto expect_same = [](const crossbar::MvmResult& a,
                              const crossbar::MvmResult& b) {
    ASSERT_EQ(a.y.size(), b.y.size());
    for (std::size_t i = 0; i < a.y.size(); ++i) EXPECT_EQ(a.y[i], b.y[i]);
    EXPECT_EQ(a.cost.latency_ns, b.cost.latency_ns);
    EXPECT_EQ(a.cost.energy_pj, b.cost.energy_pj);
    EXPECT_EQ(a.cost.bytes_moved, b.cost.bytes_moved);
    EXPECT_EQ(a.cost.operations, b.cost.operations);
  };
  Rng noise_updated(8), noise_reprogrammed(8);
  auto analog_updated = updated->Compute(x, &noise_updated);
  auto analog_reprogrammed = reprogrammed->Compute(x, &noise_reprogrammed);
  ASSERT_TRUE(analog_updated.ok());
  ASSERT_TRUE(analog_reprogrammed.ok());
  expect_same(*analog_updated, *analog_reprogrammed);

  std::vector<double> e(16);
  for (auto& v : e) v = data_rng.Uniform(-1.0, 1.0);
  auto back_updated = updated->ComputeTranspose(e, &noise_updated);
  auto back_reprogrammed =
      reprogrammed->ComputeTranspose(e, &noise_reprogrammed);
  ASSERT_TRUE(back_updated.ok());
  ASSERT_TRUE(back_reprogrammed.ok());
  expect_same(*back_updated, *back_reprogrammed);
}

TEST(UpdateWeightsTest, SparseUpdateCheaperThanFullReprogram) {
  auto engine = crossbar::MvmEngine::Create(QuietEngine(), 32, 32, Rng(5));
  ASSERT_TRUE(engine.ok());
  Rng rng(6);
  std::vector<double> w(32 * 32);
  for (auto& v : w) v = rng.Uniform(-1.0, 1.0);
  auto full = engine->ProgramWeights(w);
  ASSERT_TRUE(full.ok());
  w[100] += 0.1;
  w[500] -= 0.1;
  auto sparse = engine->UpdateWeights(w);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->latency_ns, full->latency_ns / 10.0);
  EXPECT_LT(sparse->energy_pj, full->energy_pj / 10.0);
}

TEST(UpdateWeightsTest, RequiresPriorProgram) {
  auto engine = crossbar::MvmEngine::Create(QuietEngine(), 4, 4, Rng(7));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->UpdateWeights(std::vector<double>(16, 0.0))
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

TEST(TrainerTest, ParamsValidated) {
  TrainerParams params;
  params.engine = QuietEngine();
  params.learning_rate = 0.0;
  EXPECT_FALSE(AnalogLayerTrainer::Create(params, 4, 2,
                                          std::vector<double>(8, 0.0),
                                          Rng(8))
                   .ok());
  params.learning_rate = 0.1;
  std::vector<double> wrong_size(7, 0.0);
  EXPECT_FALSE(AnalogLayerTrainer::Create(params, 4, 2, wrong_size, Rng(8))
                   .ok());
}

TEST(TrainerTest, LearnsALinearMap) {
  // Teach the layer a fixed target matrix from random examples.
  const std::size_t in = 6, out = 4;
  Rng rng(9);
  std::vector<double> target_w(in * out);
  for (auto& v : target_w) v = rng.Uniform(-0.5, 0.5);

  TrainerParams params;
  params.engine = QuietEngine();
  params.learning_rate = 0.15;
  params.write_batch = 4;
  auto trainer = AnalogLayerTrainer::Create(
      params, in, out, std::vector<double>(in * out, 0.0), Rng(10));
  ASSERT_TRUE(trainer.ok());

  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> targets;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> x(in);
    for (auto& v : x) v = rng.Uniform(0.0, 1.0);
    std::vector<double> y(out, 0.0);
    for (std::size_t r = 0; r < in; ++r) {
      for (std::size_t c = 0; c < out; ++c) {
        y[c] += x[r] * target_w[r * out + c];
      }
    }
    inputs.push_back(std::move(x));
    targets.push_back(std::move(y));
  }

  auto report = (*trainer)->Train(inputs, targets, /*epochs=*/12);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->final_loss, report->initial_loss * 0.2)
      << "initial " << report->initial_loss << " final "
      << report->final_loss;
  // The shadow converged near the target matrix.
  double max_err = 0.0;
  for (std::size_t i = 0; i < target_w.size(); ++i) {
    max_err = std::max(max_err,
                       std::fabs((*trainer)->shadow_weights()[i] -
                                 target_w[i]));
  }
  EXPECT_LT(max_err, 0.15);
  // Cost split is fully reported.
  EXPECT_GT(report->forward_cost.energy_pj, 0.0);
  EXPECT_GT(report->backward_cost.energy_pj, 0.0);
  EXPECT_GT(report->cells_rewritten, 0u);
}

TEST(TrainerTest, LargerWriteBatchReducesWriteShare) {
  const std::size_t in = 8, out = 8;
  Rng rng(11);
  std::vector<std::vector<double>> inputs, targets;
  for (int i = 0; i < 16; ++i) {
    std::vector<double> x(in);
    for (auto& v : x) v = rng.Uniform(0.0, 1.0);
    inputs.push_back(x);
    targets.push_back(std::vector<double>(out, 0.5));
  }
  const auto write_latency = [&](int batch) {
    TrainerParams params;
    params.engine = QuietEngine();
    params.write_batch = batch;
    auto trainer = AnalogLayerTrainer::Create(
        params, in, out, std::vector<double>(in * out, 0.0), Rng(12));
    EXPECT_TRUE(trainer.ok());
    auto report = (*trainer)->Train(inputs, targets, 2);
    EXPECT_TRUE(report.ok());
    return report->write_cost.latency_ns;
  };
  // Batching writes (the §VI mitigation) cuts total write latency.
  EXPECT_LT(write_latency(16), write_latency(1));
}

}  // namespace
}  // namespace cim::dpe
