// KERNEL — analog-cycle microbenchmark: the three KernelPolicy variants.
//
// Two layers of measurement, innermost out:
//   1. Raw Crossbar::Cycle at 64/128/256, quiet (sigma=0) and noisy
//      devices, in ns per cell, for kReference / kFastBitExact /
//      kFastNoise.
//   2. A full 128x128 tile MVM through MvmEngine::Compute (8 input bits x
//      4 slices x 2 planes = 64 analog cycles) — the headline numbers: the
//      quiet-device bit-exact path must be >= 4x the reference kernel, and
//      the noisy-device fast-noise path must be >= 5x (the libm wall the
//      bit-exact contract could not cross).
//   3. Fast-noise MVMs at serve-openloop's tile shapes (16x24 and 24x8,
//      guard column on), printed without a gate: narrow tiles where the
//      per-line noise fetch is a large share of the cycle.
// End-to-end InferBatch host time is perfbench's infer-noisy workload.
//
// Before any timing, two correctness gates run (exit 1 on failure):
//   - Bit identity: kFastBitExact vs kReference MVMs must agree
//     bit-for-bit — speed that changes results under that contract is a
//     bug, not a feature.
//   - Statistical equivalence: kFastNoise factors must pass the
//     NoiseModel KS + moment gate against the reference LogNormal(0,
//     sigma) distribution, and end-to-end NN top-1 agreement with the
//     float golden model must be at parity with the bit-exact kernel.
//
// Flags:
//   --smoke        short timing windows (CI smoke / sanitizer runs; both
//                  correctness gates still run at full strength, the
//                  timing gates report SKIPPED because short windows and
//                  sanitizers distort ratios)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "crossbar/crossbar.h"
#include "crossbar/mvm_engine.h"
#include "device/noise_model.h"
#include "dpe/accelerator.h"
#include "nn/network.h"

namespace {

constexpr std::uint64_t kSeed = 0xBE7C4E11ULL;
constexpr double kNoisySigma = 0.02;

using cim::Rng;
using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarParams;
using cim::crossbar::MvmEngine;
using cim::crossbar::MvmEngineParams;
using cim::device::KernelPolicy;
using cim::device::NoiseModel;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Repeat fn until `min_s` wall-clock accumulated, three times over, and
// keep the fastest window's per-call time. Minimum-of-repetitions is the
// standard noise-resistant estimator: scheduler preemption and frequency
// ramps only ever make a window slower, so the min is the closest view of
// the kernel's true cost and keeps the speedup gate stable on busy hosts.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_s) {
  fn();  // warm-up (faults in pages, primes caches)
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t calls = 0;
    const double start = Now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = Now() - start;
    } while (elapsed < min_s);
    const double per_call = elapsed / static_cast<double>(calls);
    if (rep == 0 || per_call < best) best = per_call;
  }
  return best;
}

CrossbarParams ArrayParams(std::size_t size, double sigma,
                           KernelPolicy kernel) {
  CrossbarParams p;
  p.rows = size;
  p.cols = size;
  p.cell.read_noise_sigma = sigma;
  p.kernel = kernel;
  return p;
}

Crossbar MakeProgrammedArray(const CrossbarParams& params) {
  auto xbar = Crossbar::Create(params, Rng(kSeed));
  CIM_CHECK(xbar.ok());
  Rng level_rng(kSeed + 1);
  std::vector<std::uint64_t> levels(params.rows * params.cols);
  for (auto& l : levels) {
    l = static_cast<std::uint64_t>(level_rng.UniformInt(
        0, static_cast<std::int64_t>(params.cell.levels()) - 1));
  }
  CIM_CHECK(xbar->ProgramLevels(levels).ok());
  return std::move(xbar.value());
}

MvmEngineParams EngineParams(double sigma, KernelPolicy kernel) {
  MvmEngineParams p;
  p.array = ArrayParams(128, sigma, kernel);
  return p;
}

MvmEngine MakeProgrammedEngine(const MvmEngineParams& params,
                               std::size_t in_dim = 128,
                               std::size_t out_dim = 128) {
  auto engine = MvmEngine::Create(params, in_dim, out_dim, Rng(kSeed + 2));
  CIM_CHECK(engine.ok());
  Rng weight_rng(kSeed + 3);
  std::vector<double> w(in_dim * out_dim);
  for (double& v : w) v = weight_rng.Uniform(-1.0, 1.0);
  CIM_CHECK(engine->ProgramWeights(w).ok());
  return std::move(engine.value());
}

struct CyclePoint {
  std::size_t size = 0;
  double sigma = 0.0;
  double ref_ns_per_cell = 0.0;
  double bit_exact_ns_per_cell = 0.0;
  double fast_noise_ns_per_cell = 0.0;
  [[nodiscard]] double bit_exact_speedup() const {
    return ref_ns_per_cell / bit_exact_ns_per_cell;
  }
  [[nodiscard]] double fast_noise_speedup() const {
    return ref_ns_per_cell / fast_noise_ns_per_cell;
  }
};

struct MvmPoint {
  double sigma = 0.0;
  double ref_us = 0.0;
  double bit_exact_us = 0.0;
  double fast_noise_us = 0.0;
  [[nodiscard]] double bit_exact_speedup() const {
    return ref_us / bit_exact_us;
  }
  [[nodiscard]] double fast_noise_speedup() const {
    return ref_us / fast_noise_us;
  }
};

// The kFastNoise equivalence verdict: factor distribution plus NN parity.
struct EquivalenceResult {
  NoiseModel::EquivalenceReport factors;
  double bit_exact_top1_agreement = 0.0;
  double fast_noise_top1_agreement = 0.0;
  bool nn_parity = false;
  [[nodiscard]] bool pass() const { return factors.pass() && nn_parity; }
};

// Differential gate: bit-exact and reference MVMs on twin engines must
// produce bit-identical outputs. Runs for both device configurations.
bool BitIdentityGate() {
  bool identical = true;
  for (const double sigma : {0.0, kNoisySigma}) {
    MvmEngine fast =
        MakeProgrammedEngine(EngineParams(sigma, KernelPolicy::kFastBitExact));
    MvmEngine reference =
        MakeProgrammedEngine(EngineParams(sigma, KernelPolicy::kReference));
    Rng in_rng(kSeed + 4);
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      std::vector<double> x(128);
      for (double& v : x) v = in_rng.Uniform(0.0, 1.0);
      Rng fast_rng(cim::DeriveSeed(kSeed, trial));
      Rng ref_rng(cim::DeriveSeed(kSeed, trial));
      auto f = fast.Compute(x, &fast_rng);
      auto r = reference.Compute(x, &ref_rng);
      CIM_CHECK(f.ok() && r.ok());
      for (std::size_t i = 0; i < f->y.size(); ++i) {
        if (f->y[i] != r->y[i]) identical = false;
      }
    }
  }
  return identical;
}

// Top-1 agreement of a DPE accelerator against the float golden model on a
// fixed trial set — the NN half of the kFastNoise equivalence contract.
double MeasureTopOneAgreement(KernelPolicy kernel) {
  Rng rng(kSeed + 10);
  const cim::nn::Network net =
      cim::nn::BuildMlp("equiv", {24, 32, 6}, rng, 0.3);
  cim::dpe::DpeParams params = cim::dpe::DpeParams::Isaac();
  params.array.cell.read_noise_sigma = kNoisySigma;
  params.array.kernel = kernel;
  auto acc = cim::dpe::DpeAccelerator::Create(params, net, Rng(kSeed + 11));
  CIM_CHECK(acc.ok());

  const auto argmax = [](const cim::nn::Tensor& tensor) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < tensor.size(); ++i) {
      if (tensor[i] > tensor[best]) best = i;
    }
    return best;
  };
  constexpr int kTrials = 64;
  Rng in_rng(kSeed + 12);
  int agree = 0;
  for (int t = 0; t < kTrials; ++t) {
    cim::nn::Tensor input({24});
    for (auto& v : input.vec()) v = in_rng.Uniform(0.0, 1.0);
    auto golden = cim::nn::Forward(net, input);
    auto analog = (*acc)->Infer(input);
    CIM_CHECK(golden.ok() && analog.ok());
    if (argmax(*golden) == argmax(analog->output)) ++agree;
  }
  return static_cast<double>(agree) / kTrials;
}

EquivalenceResult StatisticalEquivalenceGate() {
  EquivalenceResult result;
  // Distributional half: 200k kFastNoise factors against LogNormal(0,
  // sigma). The KS threshold at this n resolves a sigma miscalibration of
  // well under 2%.
  const NoiseModel model(kNoisySigma, KernelPolicy::kFastNoise);
  constexpr std::size_t kSamples = 200'000;
  constexpr std::size_t kChunk = 128;  // one FillFactors call per "row"
  std::vector<double> factors(kSamples);
  Rng rng(kSeed + 13);
  for (std::size_t i = 0; i < kSamples; i += kChunk) {
    model.FillFactors(rng, factors.data() + i,
                      std::min(kChunk, kSamples - i));
  }
  result.factors = model.CheckEquivalence(factors);

  // End-to-end half: NN top-1 agreement with the float golden model must
  // be at parity between the bit-exact and fast-noise kernels.
  result.bit_exact_top1_agreement =
      MeasureTopOneAgreement(KernelPolicy::kFastBitExact);
  result.fast_noise_top1_agreement =
      MeasureTopOneAgreement(KernelPolicy::kFastNoise);
  // Parity bound: 64 Bernoulli trials near p~0.9 have sd ~0.04; a 0.125
  // two-sided band flags a real accuracy regression without flaking on
  // sampling noise. The floor mirrors the integration suite's 3/4 bar.
  result.nn_parity =
      std::abs(result.fast_noise_top1_agreement -
               result.bit_exact_top1_agreement) <= 0.125 &&
      result.fast_noise_top1_agreement >= 0.75;
  return result;
}

double MeasureCycleNsPerCell(const CrossbarParams& params, double min_s) {
  Crossbar xbar = MakeProgrammedArray(params);
  const std::vector<std::uint64_t> row_codes(params.rows, 1);  // all active
  Rng noise(kSeed + 5);
  const double per_call = TimePerCall(
      [&] { CIM_CHECK(xbar.Cycle(row_codes, 0, &noise).ok()); }, min_s);
  return per_call * 1e9 / static_cast<double>(params.rows * params.cols);
}

double MeasureMvmUs(const MvmEngineParams& params, double min_s,
                    std::size_t in_dim = 128, std::size_t out_dim = 128) {
  MvmEngine engine = MakeProgrammedEngine(params, in_dim, out_dim);
  Rng in_rng(kSeed + 6);
  std::vector<double> x(in_dim);
  for (double& v : x) v = in_rng.Uniform(0.0, 1.0);
  Rng noise(kSeed + 7);
  const double per_call = TimePerCall(
      [&] { CIM_CHECK(engine.Compute(x, &noise).ok()); }, min_s);
  return per_call * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::printf("usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const double min_s = smoke ? 0.01 : 0.3;

  // Correctness before speed. Gate 1: the bit-exact fast kernel must agree
  // bit-for-bit with the reference kernel in both device configurations.
  const bool identical = BitIdentityGate();
  std::printf("bit-exact-vs-reference bit identity: %s\n",
              identical ? "PASS" : "FAIL");
  if (!identical) return 1;

  // Gate 2: the fast-noise kernel's statistical-equivalence contract.
  const EquivalenceResult equiv = StatisticalEquivalenceGate();
  std::printf(
      "fast-noise statistical equivalence: %s\n"
      "  KS %.6f (threshold %.6f), mean_log %.2e (bound %.2e), "
      "var_log %.3e (target %.3e +- %.2e)\n"
      "  NN top-1 agreement: bit-exact %.3f, fast-noise %.3f\n",
      equiv.pass() ? "PASS" : "FAIL", equiv.factors.ks_statistic,
      equiv.factors.ks_threshold, equiv.factors.mean_log,
      equiv.factors.mean_log_bound, equiv.factors.var_log,
      kNoisySigma * kNoisySigma, equiv.factors.var_log_bound,
      equiv.bit_exact_top1_agreement, equiv.fast_noise_top1_agreement);
  if (!equiv.pass()) return 1;

  std::printf("\n== Crossbar::Cycle (all rows driven, ns per cell) ==\n");
  std::printf("%-6s %-7s %11s %11s %11s %9s %9s\n", "size", "sigma", "ref",
              "bit-exact", "fast-noise", "be-spdup", "fn-spdup");
  for (const std::size_t size :
       {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    for (const double sigma : {0.0, kNoisySigma}) {
      CyclePoint p;
      p.size = size;
      p.sigma = sigma;
      p.ref_ns_per_cell = MeasureCycleNsPerCell(
          ArrayParams(size, sigma, KernelPolicy::kReference), min_s);
      p.bit_exact_ns_per_cell = MeasureCycleNsPerCell(
          ArrayParams(size, sigma, KernelPolicy::kFastBitExact), min_s);
      p.fast_noise_ns_per_cell = MeasureCycleNsPerCell(
          ArrayParams(size, sigma, KernelPolicy::kFastNoise), min_s);
      std::printf("%-6zu %-7.3f %11.3f %11.3f %11.3f %8.2fx %8.2fx\n",
                  p.size, p.sigma, p.ref_ns_per_cell, p.bit_exact_ns_per_cell,
                  p.fast_noise_ns_per_cell, p.bit_exact_speedup(),
                  p.fast_noise_speedup());
    }
  }

  std::printf("\n== 128x128 tile MVM, MvmEngine::Compute (us per MVM) ==\n");
  std::printf("%-7s %11s %11s %11s %9s %9s\n", "sigma", "ref", "bit-exact",
              "fast-noise", "be-spdup", "fn-spdup");
  std::vector<MvmPoint> mvms;
  for (const double sigma : {0.0, kNoisySigma}) {
    MvmPoint p;
    p.sigma = sigma;
    p.ref_us = MeasureMvmUs(EngineParams(sigma, KernelPolicy::kReference),
                            min_s);
    p.bit_exact_us =
        MeasureMvmUs(EngineParams(sigma, KernelPolicy::kFastBitExact), min_s);
    p.fast_noise_us =
        MeasureMvmUs(EngineParams(sigma, KernelPolicy::kFastNoise), min_s);
    std::printf("%-7.3f %11.1f %11.1f %11.1f %8.2fx %8.2fx\n", p.sigma,
                p.ref_us, p.bit_exact_us, p.fast_noise_us,
                p.bit_exact_speedup(), p.fast_noise_speedup());
    mvms.push_back(p);
  }

  // Serve-shaped tiles: the layers serve-openloop runs (16x24 and 24x8 on
  // an ISAAC array, ABFT guard column on), where each driven line senses
  // only 25 or 9 columns and the per-line noise fetch, not the
  // accumulate, dominates. Printed for the log; no gate.
  std::printf("\n== serve-shaped tile MVM, fast-noise, guard column on "
              "(us per MVM) ==\n");
  std::printf("%-7s %11s\n", "shape", "fast-noise");
  cim::dpe::DpeParams serve = cim::dpe::DpeParams::Isaac();
  serve.array.kernel = KernelPolicy::kFastNoise;
  serve.fault_tolerance.enabled = true;
  for (const auto& [in_dim, out_dim] :
       {std::pair<std::size_t, std::size_t>{16, 24}, {24, 8}}) {
    const double us =
        MeasureMvmUs(serve.EngineParams(), min_s, in_dim, out_dim);
    std::printf("%3zux%-3zu %11.1f\n", in_dim, out_dim, us);
  }

  std::printf(
      "\nquiet-device (sigma=0) rows show the kernels' arithmetic gain; "
      "noisy rows show kFastNoise breaking the libm wall that pins the "
      "bit-exact path near 1x (see EXPERIMENTS.md, Simulator "
      "performance)\n");

  // Timing gates, one PASS / FAIL / SKIPPED line each: quiet-device
  // 128x128 MVM bit-exact speedup >= 4x, and noisy-device 128x128 MVM
  // fast-noise speedup >= 5x. Smoke windows (and sanitizer builds) distort
  // ratios, so smoke mode reports them SKIPPED.
  bool ok = true;
  for (const MvmPoint& p : mvms) {
    const bool quiet = p.sigma == 0.0;
    const double speedup =
        quiet ? p.bit_exact_speedup() : p.fast_noise_speedup();
    const double bound = quiet ? 4.0 : 5.0;
    std::printf("%s-device 128x128 MVM %s speedup >= %.0fx: ",
                quiet ? "quiet" : "noisy", quiet ? "bit-exact" : "fast-noise",
                bound);
    if (smoke) {
      std::printf("SKIPPED (smoke mode: short timing windows)\n");
      continue;
    }
    const bool pass = speedup >= bound;
    std::printf("%s (%.2fx)\n", pass ? "PASS" : "FAIL", speedup);
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}
