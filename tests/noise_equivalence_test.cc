// Statistical-equivalence differential suite for KernelPolicy::kFastNoise.
//
// The bit-exact kernels get a bit-identity differential suite
// (mvm_kernel_test.cc); the fast-noise kernel's contract is distributional,
// so this suite gates it the way the bench does:
//   1. factor level   — KS + moment tests of NoiseModel::FillFactors output
//                       against the contract LogNormal(0, sigma), drawn in
//                       row-sized chunks exactly as the crossbar draws them;
//   2. kernel level   — noisy MVM outputs stay centred on the quiet
//                       reference outputs (the noise perturbs, never
//                       biases);
//   3. network level  — end-to-end DPE top-1 agreement with the golden
//                       digital model matches the bit-exact kernel's.
// Plus the one-tile-per-sigma sharing contract (pinned tile bytes, sharing
// across models and across concurrently constructing threads) and pinned
// accuracy checks for the detail:: building blocks the noise tile is
// constructed from.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crossbar/mvm_engine.h"
#include "device/noise_model.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "stat_utils.h"

namespace cim {
namespace {

using device::KernelPolicy;
using device::NoiseModel;

constexpr double kSigma = 0.02;
constexpr std::size_t kRow = 128;  // factors per draw, as the kernels draw

std::vector<double> DrawFactors(const NoiseModel& model, std::uint64_t seed,
                                std::size_t n) {
  Rng rng(seed);
  std::vector<double> factors(n);
  for (std::size_t base = 0; base < n; base += kRow) {
    const std::size_t m = std::min(kRow, n - base);
    model.FillFactors(rng, factors.data() + base, m);
  }
  return factors;
}

TEST(NoiseEquivalence, FastNoiseFactorsPassKsAndMomentGate) {
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(model, 0xE0A1, 200'000);
  const auto report = model.CheckEquivalence(factors);
  EXPECT_TRUE(report.ks_pass)
      << "KS " << report.ks_statistic << " > " << report.ks_threshold;
  EXPECT_TRUE(report.moments_pass)
      << "mean_log " << report.mean_log << " (bound " << report.mean_log_bound
      << "), var_log " << report.var_log << " vs " << kSigma * kSigma
      << " (bound " << report.var_log_bound << ")";
}

TEST(NoiseEquivalence, GateAgreesWithStatUtilsHelpers) {
  // CheckEquivalence and the reusable helpers must be the same test; gate
  // divergence here means one of them drifted.
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(model, 0xE0A2, 100'000);
  const auto report = model.CheckEquivalence(factors);
  const double d = stat_utils::KsStatistic(factors, [](double x) {
    return NoiseModel::LogNormalCdf(x, 0.0, kSigma);
  });
  EXPECT_NEAR(report.ks_statistic, d, 1e-12);
  EXPECT_NEAR(report.ks_threshold, stat_utils::KsThreshold(factors.size()),
              1e-12);
  std::vector<double> logs(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    logs[i] = std::log(factors[i]);
  }
  const auto check =
      stat_utils::CheckNormalMoments(stat_utils::Moments(logs), 0.0, kSigma);
  EXPECT_EQ(report.moments_pass, check.pass());
}

TEST(NoiseEquivalence, GateRejectsWrongSigma) {
  // The gate must have teeth: factors drawn at a 10% inflated sigma fail
  // the same check the fast-noise kernel passes.
  const NoiseModel wrong(1.1 * kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(wrong, 0xE0A3, 200'000);
  const NoiseModel contract(kSigma, KernelPolicy::kFastNoise);
  EXPECT_FALSE(contract.CheckEquivalence(factors).pass());
}

TEST(NoiseEquivalence, BitExactPoliciesReproduceReferenceStream) {
  // kReference and kFastBitExact share FillFactors' libm path: identical
  // draws from identical RNG state, the heart of the bit-identity contract.
  const NoiseModel reference(kSigma, KernelPolicy::kReference);
  const NoiseModel fast(kSigma, KernelPolicy::kFastBitExact);
  const auto a = DrawFactors(reference, 0xE0A4, 4096);
  const auto b = DrawFactors(fast, 0xE0A4, 4096);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(reference.bit_exact());
  EXPECT_TRUE(fast.bit_exact());
  EXPECT_FALSE(NoiseModel(kSigma, KernelPolicy::kFastNoise).bit_exact());
}

TEST(NoiseEquivalence, TileWraparoundAndDeterminism) {
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  // A draw longer than the tile must wrap and stay within the lognormal
  // support.
  Rng rng(0xE0A5);
  std::vector<double> factors(NoiseModel::kTileSize + 1000);
  model.FillFactors(rng, factors.data(), factors.size());
  for (const double f : factors) {
    ASSERT_TRUE(std::isfinite(f));
    ASSERT_GT(f, 0.0);
  }
  // Same rng seed => same rotation => identical factors (determinism), and
  // the call consumes exactly one u64 of rng state.
  Rng replay(0xE0A5);
  std::vector<double> again(factors.size());
  model.FillFactors(replay, again.data(), again.size());
  EXPECT_EQ(factors, again);
  // The call consumes exactly one u64 of rng state (the rotation draw).
  Rng manual(0xE0A5);
  manual.NextU64();
  EXPECT_EQ(rng.NextU64(), manual.NextU64());
}

// FNV-1a over the tile's IEEE-754 bytes (little-endian per entry).
std::uint64_t TileChecksum(std::span<const double> tile) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : tile) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(NoiseEquivalence, TileBytesArePinned) {
  // The tile is a pure function of sigma; these checksums were taken from
  // the per-model tile builder before tiles were shared, so sharing (and
  // any later change to the cache) must leave every served factor as it
  // was.
  const NoiseModel a(0.02, KernelPolicy::kFastNoise);
  const NoiseModel b(0.05, KernelPolicy::kFastNoise);
  ASSERT_EQ(a.tile().size(), NoiseModel::kTileSize);
  ASSERT_EQ(b.tile().size(), NoiseModel::kTileSize);
  EXPECT_EQ(TileChecksum(a.tile()), 0xA11D2D222546FA0DULL);
  EXPECT_EQ(TileChecksum(b.tile()), 0xCF9312F5CC0FC29DULL);
  // Only the fast-noise policy with sigma > 0 serves from a tile.
  EXPECT_TRUE(NoiseModel(0.02, KernelPolicy::kFastBitExact).tile().empty());
  EXPECT_TRUE(NoiseModel(0.0, KernelPolicy::kFastNoise).tile().empty());
}

TEST(NoiseEquivalence, EqualSigmaSharesOneTile) {
  const NoiseModel a(kSigma, KernelPolicy::kFastNoise);
  const NoiseModel b(kSigma, KernelPolicy::kFastNoise);
  const NoiseModel copy = a;
  EXPECT_EQ(a.tile().data(), b.tile().data());
  EXPECT_EQ(a.tile().data(), copy.tile().data());
  const NoiseModel other(1.5 * kSigma, KernelPolicy::kFastNoise);
  EXPECT_NE(a.tile().data(), other.tile().data());
  EXPECT_NE(TileChecksum(a.tile()), TileChecksum(other.tile()));
}

TEST(NoiseEquivalence, ConcurrentConstructionBuildsOneTile) {
  // Eight loop iterations construct a model of a sigma no other test uses,
  // all released at once, so they race for the first build; every model
  // must end up on the same tile, and a later model must find it still
  // live. An iteration blocks its thread at the latch until all eight have
  // arrived, so the eight run on eight distinct threads of the pool.
  constexpr std::size_t kWorkers = 8;
  constexpr double kFreshSigma = 0.0375;
  ThreadPool pool(kWorkers);
  std::latch start(kWorkers);
  std::vector<NoiseModel> built(kWorkers);
  pool.ParallelFor(kWorkers, [&](std::size_t i) {
    start.arrive_and_wait();
    built[i] = NoiseModel(kFreshSigma, KernelPolicy::kFastNoise);
  });
  for (const NoiseModel& model : built) {
    ASSERT_EQ(model.tile().size(), NoiseModel::kTileSize);
    EXPECT_EQ(model.tile().data(), built.front().tile().data());
  }
  const NoiseModel serial(kFreshSigma, KernelPolicy::kFastNoise);
  EXPECT_EQ(serial.tile().data(), built.front().tile().data());
}

TEST(NoiseEquivalence, NoisyMvmStaysCentredOnQuietReference) {
  // Kernel level: over repeated noisy MVMs the per-output mean converges on
  // the quiet output (multiplicative noise with E[factor] ~ 1), for the
  // fast-noise kernel just as for the reference kernel.
  constexpr std::size_t kDim = 64;
  crossbar::MvmEngineParams params;
  params.array.rows = kDim;
  params.array.cols = kDim;
  params.array.cell.read_noise_sigma = 0.0;

  Rng data_rng(0xE0A6);
  std::vector<double> weights(kDim * kDim);
  for (auto& w : weights) w = data_rng.Uniform(-1.0, 1.0);
  std::vector<double> input(kDim);
  for (auto& v : input) v = data_rng.Uniform(0.0, 1.0);

  const auto quiet_out = [&] {
    auto engine =
        crossbar::MvmEngine::Create(params, kDim, kDim, Rng(0xE0A7));
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE(engine->ProgramWeights(weights).ok());
    auto result = engine->Compute(input);
    EXPECT_TRUE(result.ok());
    return result->y;
  }();

  for (const KernelPolicy policy :
       {KernelPolicy::kReference, KernelPolicy::kFastNoise}) {
    auto noisy = params;
    noisy.array.cell.read_noise_sigma = kSigma;
    noisy.array.kernel = policy;
    auto engine =
        crossbar::MvmEngine::Create(noisy, kDim, kDim, Rng(0xE0A7));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->ProgramWeights(weights).ok());
    constexpr int kTrials = 64;
    std::vector<double> mean(kDim, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      auto result = engine->Compute(input);
      ASSERT_TRUE(result.ok());
      for (std::size_t i = 0; i < mean.size(); ++i) {
        mean[i] += result->y[i] / kTrials;
      }
    }
    double rms_dev = 0.0, rms_ref = 0.0;
    for (std::size_t i = 0; i < mean.size(); ++i) {
      rms_dev += (mean[i] - quiet_out[i]) * (mean[i] - quiet_out[i]);
      rms_ref += quiet_out[i] * quiet_out[i];
    }
    // Averaged noisy outputs land within a few percent of quiet outputs;
    // a biased sampler would leave a persistent offset here.
    EXPECT_LT(std::sqrt(rms_dev), 0.05 * std::sqrt(rms_ref))
        << device::KernelPolicyName(policy);
  }
}

TEST(NoiseEquivalence, FastNoiseDpeKeepsTopOneAgreement) {
  // Network level, mirroring Integration.NoisyDpeKeepsTopOneAgreement: the
  // fast-noise kernel must classify like the golden model as often as the
  // bit-exact kernel does.
  Rng rng(3);
  const nn::Network net = nn::BuildMlp("cls", {24, 32, 6}, rng, 0.3);
  int agreement[2] = {0, 0};
  const KernelPolicy policies[2] = {KernelPolicy::kFastBitExact,
                                    KernelPolicy::kFastNoise};
  constexpr int kTrials = 20;
  for (int which = 0; which < 2; ++which) {
    dpe::DpeParams params = dpe::DpeParams::Isaac();
    params.array.cell.read_noise_sigma = kSigma;
    params.array.kernel = policies[which];
    auto acc = dpe::DpeAccelerator::Create(params, net, Rng(4));
    ASSERT_TRUE(acc.ok());
    Rng input_rng(0xE0A8);
    for (int t = 0; t < kTrials; ++t) {
      nn::Tensor input({24});
      for (auto& v : input.vec()) v = input_rng.Uniform(0.0, 1.0);
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
      if (argmax(*golden) == argmax(analog->output)) ++agreement[which];
    }
  }
  EXPECT_GE(agreement[1], kTrials * 3 / 4) << "fast-noise agreement too low";
  // Parity with the bit-exact kernel within a small band, not just a floor.
  EXPECT_LE(std::abs(agreement[0] - agreement[1]), kTrials / 4);
}

TEST(NoiseEquivalence, DetailBuildingBlocksArePinned) {
  // InverseNormalCdf: spot values of Phi^-1 (Acklam accuracy ~1.15e-9,
  // checked at 1e-7 to stay far from the approximation's noise floor).
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.975), 1.959964, 1e-6);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.025), -1.959964, 1e-6);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.001), -3.090232, 1e-5);
  // CounterUniform: deterministic, in (0, 1), and stream-separated.
  const double u = device::detail::CounterUniform(7, 9);
  EXPECT_EQ(u, device::detail::CounterUniform(7, 9));
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_NE(u, device::detail::CounterUniform(8, 9));
}

}  // namespace
}  // namespace cim
