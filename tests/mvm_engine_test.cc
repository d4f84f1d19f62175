// Tests for the bit-sliced signed MVM engine, including property-style
// parameterized sweeps comparing the analog path against the exact
// quantized product.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "boundary_values.h"
#include "common/rng.h"
#include "crossbar/mvm_engine.h"

namespace cim::crossbar {
namespace {

MvmEngineParams QuietParams(std::size_t rows = 32, std::size_t cols = 32) {
  MvmEngineParams p;
  p.array.rows = rows;
  p.array.cols = cols;
  p.array.cell.read_noise_sigma = 0.0;
  p.array.cell.write_noise_sigma = 0.0;
  p.array.cell.endurance_cycles = 0;
  p.array.cell.drift_nu = 0.0;
  p.array.ir_drop_alpha = 0.0;
  p.array.adc.bits = 12;
  p.weight_bits = 5;
  p.input_bits = 4;
  return p;
}

std::vector<double> RandomMatrix(std::size_t n, Rng& rng) {
  std::vector<double> m(n);
  for (auto& v : m) v = rng.Uniform(-1.0, 1.0);
  return m;
}

std::vector<double> RandomInput(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.Uniform(0.0, 1.0);
  return x;
}

TEST(MvmEngineParamsTest, Validation) {
  EXPECT_TRUE(QuietParams().Validate().ok());
  MvmEngineParams p = QuietParams();
  p.weight_bits = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.input_bits = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.array.dac.v_read = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.input_range = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  // Infinite ranges make every output NaN; the shift-add costs are per-event
  // charges with the common/units.h ceilings.
  p = QuietParams();
  p.weight_range = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.shift_add_energy = EnergyPj(-1.0);
  EXPECT_FALSE(p.Validate().ok());
  p.shift_add_energy = EnergyPj(std::nextafter(kMaxEventEnergyPj, 2e12));
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.shift_add_latency = TimeNs(-1.0);
  EXPECT_FALSE(p.Validate().ok());
  p.shift_add_latency = TimeNs(std::nextafter(kMaxEventLatencyNs, 2e9));
  EXPECT_FALSE(p.Validate().ok());
}

// Boundary fuzz over the engine's own real-valued fields, in the style of
// dpe_test's ParamsFuzzTest: one field at a time takes its boundary values
// (boundary_values.h). Validate must reject every non-finite value, and
// every accepted value must survive Create, ProgramWeights and one Compute
// with finite outputs and a finite, non-negative cost.
TEST(MvmEngineParamsFuzzTest, EveryAcceptedSingleFieldBoundaryRuns) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& field :
       {CIM_FIELD_VALUES(MvmEngineParams, weight_range, 1.0),
        CIM_FIELD_VALUES(MvmEngineParams, input_range, 1.0),
        CIM_FIELD_VALUES(MvmEngineParams, shift_add_energy.pj, 0.0,
                         kMaxEventEnergyPj),
        CIM_FIELD_VALUES(MvmEngineParams, shift_add_latency.ns, 0.0,
                         kMaxEventLatencyNs)}) {
    for (const auto& value : field) {
      const std::string& what = value.label;
      MvmEngineParams p = QuietParams(8, 8);
      value.apply(p);
      if (!p.Validate().ok()) {
        ++rejected;
        continue;
      }
      EXPECT_TRUE(what.find("nan") == std::string::npos &&
                  what.find("inf") == std::string::npos)
          << what << " accepted";
      ++accepted;
      auto engine = MvmEngine::Create(p, 4, 4, Rng(31));
      ASSERT_TRUE(engine.ok()) << what;
      Rng rng(32);
      ASSERT_TRUE(engine->ProgramWeights(RandomMatrix(16, rng)).ok()) << what;
      auto result = engine->Compute(RandomInput(4, rng));
      ASSERT_TRUE(result.ok()) << what;
      for (const double y : result->y) EXPECT_TRUE(std::isfinite(y)) << what;
      EXPECT_TRUE(std::isfinite(result->cost.latency_ns) &&
                  std::isfinite(result->cost.energy_pj) &&
                  result->cost.latency_ns >= 0.0 &&
                  result->cost.energy_pj >= 0.0)
          << what;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(MvmEngineTest, CreateRejectsOversizedDims) {
  const MvmEngineParams p = QuietParams(8, 8);
  EXPECT_FALSE(MvmEngine::Create(p, 9, 4, Rng(1)).ok());
  EXPECT_FALSE(MvmEngine::Create(p, 4, 9, Rng(1)).ok());
  EXPECT_FALSE(MvmEngine::Create(p, 0, 4, Rng(1)).ok());
  EXPECT_TRUE(MvmEngine::Create(p, 8, 8, Rng(1)).ok());
}

TEST(MvmEngineTest, ComputeBeforeProgramFails) {
  auto engine = MvmEngine::Create(QuietParams(8, 8), 4, 4, Rng(2));
  ASSERT_TRUE(engine.ok());
  std::vector<double> x(4, 0.5);
  EXPECT_EQ(engine->Compute(x).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine->GoldenCompute(x).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(MvmEngineTest, SizeMismatchesRejected) {
  auto engine = MvmEngine::Create(QuietParams(8, 8), 4, 4, Rng(3));
  ASSERT_TRUE(engine.ok());
  std::vector<double> wrong_weights(10, 0.0);
  EXPECT_FALSE(engine->ProgramWeights(wrong_weights).ok());
  std::vector<double> weights(16, 0.1);
  ASSERT_TRUE(engine->ProgramWeights(weights).ok());
  std::vector<double> wrong_x(5, 0.0);
  EXPECT_FALSE(engine->Compute(wrong_x).ok());
}

TEST(MvmEngineTest, GoldenMatchesDirectQuantizedProduct) {
  Rng rng(4);
  auto engine = MvmEngine::Create(QuietParams(16, 16), 8, 6, Rng(5));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> w = RandomMatrix(8 * 6, rng);
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  const std::vector<double> x = RandomInput(8, rng);
  auto y = engine->GoldenCompute(x);
  ASSERT_TRUE(y.ok());
  // Golden should be within overall quantization error of the float product.
  for (std::size_t c = 0; c < 6; ++c) {
    double exact = 0.0;
    for (std::size_t r = 0; r < 8; ++r) exact += w[r * 6 + c] * x[r];
    // 5-bit weights + 4-bit inputs over 8 terms: coarse but bounded.
    EXPECT_NEAR(y->at(c), exact, 8 * (1.0 / 15.0 + 1.0 / 15.0 + 0.01));
  }
}

TEST(MvmEngineTest, AnalogMatchesGoldenWithinAdcBound) {
  Rng rng(6);
  auto engine = MvmEngine::Create(QuietParams(32, 32), 32, 16, Rng(7));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> w = RandomMatrix(32 * 16, rng);
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  const std::vector<double> x = RandomInput(32, rng);
  auto analog = engine->Compute(x);
  auto golden = engine->GoldenCompute(x);
  ASSERT_TRUE(analog.ok());
  ASSERT_TRUE(golden.ok());
  const double bound = engine->AdcErrorBound();
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(analog->y[c], golden->at(c), bound)
        << "column " << c;
  }
}

TEST(MvmEngineTest, ZeroInputGivesZeroOutput) {
  auto engine = MvmEngine::Create(QuietParams(8, 8), 8, 8, Rng(8));
  ASSERT_TRUE(engine.ok());
  Rng rng(9);
  ASSERT_TRUE(engine->ProgramWeights(RandomMatrix(64, rng)).ok());
  auto result = engine->Compute(std::vector<double>(8, 0.0));
  ASSERT_TRUE(result.ok());
  for (double y : result->y) EXPECT_DOUBLE_EQ(y, 0.0);
}

TEST(MvmEngineTest, NegativeWeightsProduceNegativeOutputs) {
  auto engine = MvmEngine::Create(QuietParams(8, 8), 4, 1, Rng(10));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->ProgramWeights(std::vector<double>(4, -0.5)).ok());
  auto result = engine->Compute(std::vector<double>(4, 1.0));
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->y[0], -1.5);  // approx -0.5 * 4
  EXPECT_GT(result->y[0], -2.5);
}

TEST(MvmEngineTest, ProgramLatencyFarExceedsComputeLatency) {
  // The asymmetric write/read gap the paper highlights in §VI.
  auto engine = MvmEngine::Create(QuietParams(32, 32), 32, 32, Rng(11));
  ASSERT_TRUE(engine.ok());
  Rng rng(12);
  auto program_cost = engine->ProgramWeights(RandomMatrix(32 * 32, rng));
  ASSERT_TRUE(program_cost.ok());
  auto compute = engine->Compute(RandomInput(32, rng));
  ASSERT_TRUE(compute.ok());
  EXPECT_GT(program_cost->latency_ns, 20.0 * compute->cost.latency_ns);
}

TEST(MvmEngineTest, StuckFaultPerturbsOutput) {
  auto make = [] {
    auto engine = MvmEngine::Create(QuietParams(8, 8), 8, 4, Rng(13));
    EXPECT_TRUE(engine.ok());
    Rng rng(14);
    std::vector<double> w(32);
    for (auto& v : w) v = 0.25;
    EXPECT_TRUE(engine->ProgramWeights(w).ok());
    return std::move(engine.value());
  };
  MvmEngine clean = make();
  MvmEngine faulty = make();
  faulty.InjectCellFault(/*plane=*/0, 0, 0, device::CellFault::kStuckOn);
  const std::vector<double> x(8, 1.0);
  auto clean_y = clean.Compute(x);
  auto faulty_y = faulty.Compute(x);
  ASSERT_TRUE(clean_y.ok() && faulty_y.ok());
  EXPECT_NE(clean_y->y[0], faulty_y->y[0]);
  // Other columns unaffected by a single-cell fault.
  EXPECT_NEAR(clean_y->y[3], faulty_y->y[3], 1e-9);
}

TEST(MvmEngineTest, TransposeMatchesGoldenTranspose) {
  Rng rng(20);
  auto engine = MvmEngine::Create(QuietParams(32, 32), 16, 12, Rng(21));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> w = RandomMatrix(16 * 12, rng);
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  // Signed error vector (backprop-style).
  std::vector<double> e(12);
  for (auto& v : e) v = rng.Uniform(-1.0, 1.0);
  auto analog = engine->ComputeTranspose(e);
  auto golden = engine->GoldenComputeTranspose(e);
  ASSERT_TRUE(analog.ok());
  ASSERT_TRUE(golden.ok());
  ASSERT_EQ(analog->y.size(), 16u);
  // Two signed passes double the worst-case ADC error bound.
  const double bound = 2.0 * engine->AdcErrorBound();
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_NEAR(analog->y[r], golden->at(r), bound) << "row " << r;
  }
}

TEST(MvmEngineTest, TransposeIsTheBackwardProduct) {
  // Forward y = W^T x and backward g = W e are consistent: for e = unit
  // column c, g approximates the c-th weight column.
  auto engine = MvmEngine::Create(QuietParams(16, 16), 4, 3, Rng(22));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> w{0.5, -0.25, 0.125,   //
                              0.0, 0.75, -0.5,     //
                              -0.375, 0.25, 0.625,  //
                              1.0, -1.0, 0.5};
  ASSERT_TRUE(engine->ProgramWeights(w).ok());
  std::vector<double> e{0.0, 1.0, 0.0};  // select column 1
  auto g = engine->ComputeTranspose(e);
  ASSERT_TRUE(g.ok());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(g->y[r], w[r * 3 + 1], 0.1) << "row " << r;
  }
}

TEST(MvmEngineTest, TransposeCostsTwoForwardPasses) {
  auto engine = MvmEngine::Create(QuietParams(32, 32), 32, 32, Rng(23));
  ASSERT_TRUE(engine.ok());
  Rng rng(24);
  ASSERT_TRUE(engine->ProgramWeights(RandomMatrix(32 * 32, rng)).ok());
  auto forward = engine->Compute(RandomInput(32, rng));
  std::vector<double> e(32);
  for (auto& v : e) v = rng.Uniform(-1.0, 1.0);
  auto backward = engine->ComputeTranspose(e);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_NEAR(backward->cost.latency_ns / forward->cost.latency_ns, 2.0,
              0.3);
}

TEST(MvmEngineTest, TransposeValidation) {
  auto engine = MvmEngine::Create(QuietParams(8, 8), 4, 4, Rng(25));
  ASSERT_TRUE(engine.ok());
  std::vector<double> e(4, 0.0);
  EXPECT_EQ(engine->ComputeTranspose(e).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(engine->ProgramWeights(std::vector<double>(16, 0.1)).ok());
  std::vector<double> wrong(5, 0.0);
  EXPECT_FALSE(engine->ComputeTranspose(wrong).ok());
}

// The bit-serial sweep's bytes, pinned: FNV-1a checksums of y, the four
// cost fields and the guard verdict of Compute and ComputeTranspose,
// computed before the sweep's periphery was restructured (the 1-bit drive
// list, the quiet read-current mirror, the per-bit digit table and the
// register-resident energy sums). Every device kind, guard on and off, and
// ADC widths 1, 8 and 16 run on a 40x24 array with 37x21 logical lines, so
// physical lines past the logical ones exist on both sides. The inputs
// include an all-zero vector (no bit drives a line), a vector of even codes
// (bit 0 drives none) and a non-negative error (the negative transpose
// sweep drives none); each runs once on an external stream and once on the
// engine's own.
class Fnv1a {
 public:
  void Add(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double x) { Add(std::bit_cast<std::uint64_t>(x)); }
  void Add(const MvmResult& r) {
    for (const double y : r.y) Add(y);
    Add(r.cost.latency_ns);
    Add(r.cost.energy_pj);
    Add(r.cost.bytes_moved);
    Add(r.cost.operations);
    Add(std::uint64_t{r.guard_checked} << 1 | std::uint64_t{r.guard_ok});
    Add(r.guard_residual);
    Add(r.guard_threshold);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class SweepDevice { kQuiet, kNoisyBitExact, kFastNoise };

std::uint64_t SweepChecksum(SweepDevice device, bool guard, int adc_bits) {
  constexpr std::size_t kIn = 37;
  constexpr std::size_t kOut = 21;
  MvmEngineParams p;
  p.array.rows = 40;
  p.array.cols = 24;
  p.array.adc.bits = adc_bits;
  p.guard_column = guard;
  p.array.kernel = device == SweepDevice::kFastNoise
                       ? device::KernelPolicy::kFastNoise
                       : device::KernelPolicy::kFastBitExact;
  if (device == SweepDevice::kQuiet) p.array.cell.read_noise_sigma = 0.0;
  auto engine = MvmEngine::Create(p, kIn, kOut, Rng(0x5EE9));
  EXPECT_TRUE(engine.ok());
  Rng rng(0xB175);
  EXPECT_TRUE(engine->ProgramWeights(RandomMatrix(kIn * kOut, rng)).ok());

  std::vector<std::vector<double>> inputs = {RandomInput(kIn, rng),
                                             std::vector<double>(kIn, 0.0),
                                             std::vector<double>(kIn, 1.0)};
  std::vector<double> even(kIn);
  for (std::size_t i = 0; i < kIn; ++i) {
    even[i] = static_cast<double>(2 * rng.NextBounded(128)) / 255.0;
  }
  inputs.push_back(even);
  std::vector<double> signed_error(kOut);
  for (double& v : signed_error) v = rng.Uniform(-1.0, 1.0);
  const std::vector<std::vector<double>> errors = {
      signed_error, RandomInput(kOut, rng), std::vector<double>(kOut, 0.0)};

  Fnv1a fnv;
  for (const auto& x : inputs) {
    Rng noise(0xC0DE);
    auto external = engine->Compute(x, &noise);
    auto internal = engine->Compute(x);
    EXPECT_TRUE(external.ok() && internal.ok());
    fnv.Add(*external);
    fnv.Add(*internal);
  }
  for (const auto& e : errors) {
    Rng noise(0xDEC0);
    auto external = engine->ComputeTranspose(e, &noise);
    auto internal = engine->ComputeTranspose(e);
    EXPECT_TRUE(external.ok() && internal.ok());
    fnv.Add(*external);
    fnv.Add(*internal);
  }
  return fnv.hash();
}

TEST(MvmEngineTest, BitSweepBytesArePinned) {
  struct Pin {
    SweepDevice device;
    bool guard;
    int adc_bits;
    std::uint64_t checksum;
  };
  const std::vector<Pin> pins = {
      {SweepDevice::kQuiet, false, 1, 0xB9F29A287272A499ULL},
      {SweepDevice::kQuiet, false, 8, 0x2A64C646DA74FD49ULL},
      {SweepDevice::kQuiet, false, 16, 0x2FEC362F05484125ULL},
      {SweepDevice::kQuiet, true, 1, 0x0FD266719D324021ULL},
      {SweepDevice::kQuiet, true, 8, 0x72558C424AABC771ULL},
      {SweepDevice::kQuiet, true, 16, 0xCD90C1FDDBE4411DULL},
      {SweepDevice::kNoisyBitExact, false, 1, 0xB9F29A287272A499ULL},
      {SweepDevice::kNoisyBitExact, false, 8, 0xCE279B67D10A740FULL},
      {SweepDevice::kNoisyBitExact, false, 16, 0x6FBF87E74D665D00ULL},
      {SweepDevice::kNoisyBitExact, true, 1, 0x4BC003353B03DF59ULL},
      {SweepDevice::kNoisyBitExact, true, 8, 0x787F1DF751926E50ULL},
      {SweepDevice::kNoisyBitExact, true, 16, 0xA844863BCD99142BULL},
      {SweepDevice::kFastNoise, false, 1, 0xB9F29A287272A499ULL},
      {SweepDevice::kFastNoise, false, 8, 0x6A337B1D5C65B52CULL},
      {SweepDevice::kFastNoise, false, 16, 0xE06B2169B9CC9AB8ULL},
      {SweepDevice::kFastNoise, true, 1, 0x4BC003353B03DF59ULL},
      {SweepDevice::kFastNoise, true, 8, 0x045A86636463659BULL},
      {SweepDevice::kFastNoise, true, 16, 0x3874F25AB143C0FCULL},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = SweepChecksum(pin.device, pin.guard,
                                            pin.adc_bits);
    EXPECT_EQ(got, pin.checksum)
        << "device " << static_cast<int>(pin.device) << " guard "
        << pin.guard << " adc.bits " << pin.adc_bits << ": got 0x"
        << std::hex << std::uppercase << got;
  }
}

// Property sweep: analog result tracks the golden quantized product within
// the ADC error bound across engine geometries and precisions.
class MvmEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MvmEngineSweep, AnalogTracksGolden) {
  const auto [dim, weight_bits, input_bits, cell_bits] = GetParam();
  MvmEngineParams p = QuietParams(64, 64);
  p.weight_bits = weight_bits;
  p.input_bits = input_bits;
  p.array.cell.cell_bits = cell_bits;
  auto engine = MvmEngine::Create(p, dim, dim, Rng(100 + dim));
  ASSERT_TRUE(engine.ok());
  Rng rng(200 + weight_bits * 10 + input_bits);
  ASSERT_TRUE(
      engine->ProgramWeights(RandomMatrix(dim * dim, rng)).ok());
  const std::vector<double> x = RandomInput(dim, rng);
  auto analog = engine->Compute(x);
  auto golden = engine->GoldenCompute(x);
  ASSERT_TRUE(analog.ok());
  ASSERT_TRUE(golden.ok());
  const double bound = engine->AdcErrorBound();
  for (int c = 0; c < dim; ++c) {
    ASSERT_NEAR(analog->y[c], golden->at(c), bound)
        << "dim=" << dim << " wb=" << weight_bits << " ib=" << input_bits
        << " cb=" << cell_bits << " col=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MvmEngineSweep,
    ::testing::Combine(::testing::Values(4, 16, 64),     // dim
                       ::testing::Values(4, 8),          // weight bits
                       ::testing::Values(2, 8),          // input bits
                       ::testing::Values(1, 2, 4)));     // cell bits

}  // namespace
}  // namespace cim::crossbar
