// Differential tests for the SoA fast-path analog kernels.
//
// Every suite here runs the same computation through the fast
// (structure-of-arrays) kernel (KernelPolicy::kFastBitExact) and the
// reference (per-cell) kernel kept behind KernelPolicy::kReference, and
// demands *bit-identical* logical outputs: y, guard verdicts, raw column
// codes. (KernelPolicy::kFastNoise carries a statistical contract instead
// — see noise_equivalence_test.cc.) Only cycle energy
// may differ (the fast path sums read energy analytically per row), and
// only in the last ulps. The mirror-invalidation suites separately pin
// that every mutation kind (program, reprogram, single-cell program, age,
// fault) is visible to the cached conductance mirror by comparing cycles
// against IdealColumnCurrents, which is computed off the cells directly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crossbar/crossbar.h"
#include "crossbar/mvm_engine.h"

namespace cim::crossbar {
namespace {

constexpr std::uint64_t kSeed = 0xC1D4'57A6ULL;

MvmEngineParams NoisyEngineParams(device::KernelPolicy kernel, bool guard) {
  MvmEngineParams p;
  // Non-square, so a transposed walk that swapped the row and column
  // strides of the one row-major mirror plane would read the wrong cells.
  p.array.rows = 32;
  p.array.cols = 40;
  p.array.kernel = kernel;
  p.guard_column = guard;
  // Defaults keep read noise on (sigma 0.02): the differential contract is
  // about the noise stream above all else.
  return p;
}

// Which device the twins model: the default noisy one, or a quiet one
// (read_noise_sigma 0), whose fast kernel runs the register-blocked
// multiply-add over the pre-clamped mirror instead of the noisy loop.
enum class Device { kNoisy, kQuiet };

std::vector<double> RandomWeights(std::size_t n, Rng& rng) {
  std::vector<double> w(n);
  for (double& v : w) v = rng.Uniform(-1.0, 1.0);
  return w;
}

std::vector<double> RandomInput(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  return x;
}

// A fast/reference engine pair built from identical seeds with identical
// programmed weights — everything but the kernel twin matches.
struct EnginePair {
  MvmEngine fast;
  MvmEngine reference;
};

EnginePair MakeTwins(bool guard, std::size_t in_dim, std::size_t out_dim,
                     Device device = Device::kNoisy) {
  MvmEngineParams fast_params =
      NoisyEngineParams(device::KernelPolicy::kFastBitExact, guard);
  MvmEngineParams ref_params =
      NoisyEngineParams(device::KernelPolicy::kReference, guard);
  if (device == Device::kQuiet) {
    fast_params.array.cell.read_noise_sigma = 0.0;
    ref_params.array.cell.read_noise_sigma = 0.0;
  }
  auto fast = MvmEngine::Create(fast_params, in_dim, out_dim, Rng(kSeed));
  auto reference = MvmEngine::Create(ref_params, in_dim, out_dim, Rng(kSeed));
  EXPECT_TRUE(fast.ok() && reference.ok());
  Rng wrng(kSeed + 1);
  const std::vector<double> w = RandomWeights(in_dim * out_dim, wrng);
  EXPECT_TRUE(fast->ProgramWeights(w).ok());
  EXPECT_TRUE(reference->ProgramWeights(w).ok());
  return EnginePair{std::move(fast.value()), std::move(reference.value())};
}

void ExpectBitIdentical(const MvmResult& a, const MvmResult& b) {
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "y[" << i << "] diverged";
  }
  EXPECT_EQ(a.guard_checked, b.guard_checked);
  EXPECT_EQ(a.guard_ok, b.guard_ok);
  EXPECT_EQ(a.guard_residual, b.guard_residual);
  EXPECT_EQ(a.guard_threshold, b.guard_threshold);
  EXPECT_EQ(a.cost.latency_ns, b.cost.latency_ns);
  EXPECT_EQ(a.cost.operations, b.cost.operations);
  // Energy is the one sanctioned divergence: analytic per-row sums vs
  // per-cell accumulation reorder the same additions.
  EXPECT_NEAR(a.cost.energy_pj, b.cost.energy_pj,
              1e-9 * std::abs(b.cost.energy_pj));
}

TEST(KernelDifferentialTest, ForwardBitIdentical) {
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  Rng in_rng(kSeed + 2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, ForwardBitIdenticalWithGuardColumn) {
  EnginePair twins = MakeTwins(/*guard=*/true, 24, 20);
  Rng in_rng(kSeed + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    EXPECT_TRUE(fast->guard_checked);
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, ForwardBitIdenticalUnderFaultsAndAging) {
  EnginePair twins = MakeTwins(/*guard=*/true, 24, 20);
  auto corrupt = [](MvmEngine& engine) {
    engine.InjectCellFault(0, 3, 7, device::CellFault::kStuckOn);
    engine.InjectCellFault(1, 9, 2, device::CellFault::kStuckOff);
    engine.InjectCellFault(0, 15, 15, device::CellFault::kStuckOn);
    engine.Age(TimeNs::Micros(50.0));
  };
  corrupt(twins.fast);
  corrupt(twins.reference);
  Rng in_rng(kSeed + 4);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, TransposeBitIdentical) {
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  twins.fast.InjectCellFault(1, 5, 5, device::CellFault::kStuckOff);
  twins.reference.InjectCellFault(1, 5, 5, device::CellFault::kStuckOff);
  Rng in_rng(kSeed + 5);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> e(20);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.ComputeTranspose(e, &fast_rng);
    auto reference = twins.reference.ComputeTranspose(e, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, InternalNoiseStreamsStayInLockstep) {
  // With no external Rng the kernels draw from each crossbar's internal
  // stream; consecutive calls must advance the fast and reference streams
  // identically or the paths drift apart over time.
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  Rng in_rng(kSeed + 6);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    auto fast = twins.fast.Compute(x);
    auto reference = twins.reference.Compute(x);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
    std::vector<double> e(20);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    auto fast_t = twins.fast.ComputeTranspose(e);
    auto reference_t = twins.reference.ComputeTranspose(e);
    ASSERT_TRUE(fast_t.ok() && reference_t.ok());
    ExpectBitIdentical(*fast_t, *reference_t);
  }
}

// Forward (with and without the guard column) and transpose sweeps of a
// fast/reference twin pair: bit-identical outputs, latency and operations.
void ExpectSweepsBitIdentical(EnginePair& twins, std::size_t in_dim,
                              std::size_t out_dim, std::uint64_t seed,
                              const char* context) {
  Rng in_rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << context << ", trial " << trial);
    const std::vector<double> x = RandomInput(in_dim, in_rng);
    Rng fast_rng(DeriveSeed(seed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(seed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);

    std::vector<double> e(out_dim);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    auto fast_t = twins.fast.ComputeTranspose(e, &fast_rng);
    auto reference_t = twins.reference.ComputeTranspose(e, &ref_rng);
    ASSERT_TRUE(fast_t.ok() && reference_t.ok());
    ExpectBitIdentical(*fast_t, *reference_t);
  }
}

// Quiet devices take the fast kernel's other branch (no noise factors, a
// pre-clamped mirror, register-blocked accumulators), which the noisy
// suites above never reach.
TEST(KernelDifferentialTest, QuietForwardAndTransposeBitIdentical) {
  for (const bool guard : {false, true}) {
    EnginePair twins = MakeTwins(guard, 24, 20, Device::kQuiet);
    ExpectSweepsBitIdentical(twins, 24, 20, kSeed + 13,
                             guard ? "guard column" : "no guard column");
  }
}

// Every mutation kind reaches the mirror, quiet and noisy: single-cell
// programs (via UpdateWeights), stuck-on and stuck-off faults refresh one
// cell and its line energies, aging refreshes the whole plane. Each stage
// runs forward and transposed sweeps.
TEST(KernelDifferentialTest, QuietBitIdenticalAfterEveryMutationKind) {
  for (const Device kind : {Device::kQuiet, Device::kNoisy}) {
    SCOPED_TRACE(kind == Device::kQuiet ? "quiet device" : "noisy device");
    EnginePair twins = MakeTwins(/*guard=*/false, 24, 20, kind);
    Rng wrng(kSeed + 14);
    const std::vector<double> w = RandomWeights(24 * 20, wrng);
    ASSERT_TRUE(twins.fast.UpdateWeights(w).ok());
    ASSERT_TRUE(twins.reference.UpdateWeights(w).ok());
    ExpectSweepsBitIdentical(twins, 24, 20, kSeed + 15,
                             "after UpdateWeights");

    for (MvmEngine* engine : {&twins.fast, &twins.reference}) {
      engine->InjectCellFault(0, 3, 7, device::CellFault::kStuckOn);
      engine->InjectCellFault(1, 3, 7, device::CellFault::kStuckOn);
      engine->InjectCellFault(0, 9, 2, device::CellFault::kStuckOff);
      engine->InjectCellFault(1, 15, 15, device::CellFault::kStuckOff);
    }
    ExpectSweepsBitIdentical(twins, 24, 20, kSeed + 16, "after faults");

    twins.fast.Age(TimeNs::Micros(50.0));
    twins.reference.Age(TimeNs::Micros(50.0));
    ExpectSweepsBitIdentical(twins, 24, 20, kSeed + 17, "after Age");
  }
}

// -- Raw crossbar codes -----------------------------------------------------

CrossbarParams NoisyArrayParams(device::KernelPolicy kernel) {
  CrossbarParams p;
  p.rows = 24;
  p.cols = 20;
  p.kernel = kernel;
  return p;
}

std::vector<std::uint64_t> RandomLevels(const CrossbarParams& p, Rng& rng) {
  std::vector<std::uint64_t> levels(p.rows * p.cols);
  for (auto& l : levels) {
    l = static_cast<std::uint64_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(p.cell.levels()) - 1));
  }
  return levels;
}

// Same seed, same cells: a fast/reference crossbar pair of the given shape
// with one stuck-on cell, programmed with identical random levels.
struct CrossbarPair {
  Crossbar fast;
  Crossbar reference;
};

CrossbarPair MakeCrossbarTwins(std::size_t rows, std::size_t cols,
                               Device device = Device::kNoisy) {
  CrossbarParams fast_params =
      NoisyArrayParams(device::KernelPolicy::kFastBitExact);
  CrossbarParams ref_params =
      NoisyArrayParams(device::KernelPolicy::kReference);
  fast_params.rows = ref_params.rows = rows;
  fast_params.cols = ref_params.cols = cols;
  if (device == Device::kQuiet) {
    fast_params.cell.read_noise_sigma = ref_params.cell.read_noise_sigma = 0.0;
  }
  auto fast = Crossbar::Create(fast_params, Rng(kSeed));
  auto reference = Crossbar::Create(ref_params, Rng(kSeed));
  CIM_CHECK(fast.ok() && reference.ok());
  Rng lrng(kSeed + 7);
  const auto levels = RandomLevels(fast->params(), lrng);
  CIM_CHECK(fast->ProgramLevels(levels).ok());
  CIM_CHECK(reference->ProgramLevels(levels).ok());
  fast->InjectCellFault(2, 3, device::CellFault::kStuckOn);
  reference->InjectCellFault(2, 3, device::CellFault::kStuckOn);
  return {std::move(fast).value(), std::move(reference).value()};
}

// After a gated cycle the two external streams must sit at the same point:
// the sense-gated fast kernel still advances past every unsensed cell of a
// driven line, cached Box-Muller variate included.
void ExpectSameStreamState(Rng fast_rng, Rng ref_rng, const char* context,
                           std::size_t width) {
  EXPECT_EQ(fast_rng.Gaussian(), ref_rng.Gaussian())
      << context << ", active width " << width;
  EXPECT_EQ(fast_rng.NextU64(), ref_rng.NextU64())
      << context << ", active width " << width;
}

// Forward and transpose cycles at each active width: identical codes (the
// sensed prefix; unsensed entries stay 0 on both), costs and post-cycle
// stream state between the fast and reference kernels. Forward cycles drive
// the even rows, transpose cycles every third column.
void ExpectGatedCyclesBitIdentical(CrossbarPair& twins,
                                   const std::vector<std::size_t>& widths,
                                   const std::vector<std::size_t>& heights) {
  const std::size_t rows = twins.fast.rows();
  const std::size_t cols = twins.fast.cols();
  std::vector<std::uint64_t> row_codes(rows, 0);
  for (std::size_t r = 0; r < row_codes.size(); r += 2) row_codes[r] = 1;
  for (std::size_t active_cols : widths) {
    Rng fast_rng(DeriveSeed(kSeed, active_cols));
    Rng ref_rng(DeriveSeed(kSeed, active_cols));
    auto f = twins.fast.Cycle(row_codes, active_cols, &fast_rng);
    auto r = twins.reference.Cycle(row_codes, active_cols, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes) << "active_cols "
                                                << active_cols;
    EXPECT_EQ(f->cost.latency_ns, r->cost.latency_ns);
    EXPECT_EQ(f->cost.operations, r->cost.operations);
    EXPECT_NEAR(f->cost.energy_pj, r->cost.energy_pj,
                1e-9 * std::abs(r->cost.energy_pj));
    ExpectSameStreamState(fast_rng, ref_rng, "forward", active_cols);
  }

  std::vector<std::uint64_t> col_codes(cols, 0);
  for (std::size_t c = 0; c < col_codes.size(); c += 3) col_codes[c] = 1;
  for (std::size_t active_rows : heights) {
    Rng fast_rng(DeriveSeed(kSeed + 1, active_rows));
    Rng ref_rng(DeriveSeed(kSeed + 1, active_rows));
    auto f = twins.fast.CycleTranspose(col_codes, active_rows, &fast_rng);
    auto r = twins.reference.CycleTranspose(col_codes, active_rows, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes) << "active_rows "
                                                << active_rows;
    EXPECT_EQ(f->cost.latency_ns, r->cost.latency_ns);
    EXPECT_EQ(f->cost.operations, r->cost.operations);
    EXPECT_NEAR(f->cost.energy_pj, r->cost.energy_pj,
                1e-9 * std::abs(r->cost.energy_pj));
    ExpectSameStreamState(fast_rng, ref_rng, "transpose", active_rows);
  }
}

TEST(KernelDifferentialTest, RawCycleColumnCodesBitIdentical) {
  // Partial column gating: the noise stream still covers every column of an
  // active row, so codes for the sensed prefix must match exactly.
  CrossbarPair square = MakeCrossbarTwins(24, 20);
  ExpectGatedCyclesBitIdentical(square, {0, 7}, {0, 11});
  // Odd line lengths: a Box-Muller pair straddles every second line
  // boundary, so the unsensed tail must leave the cached second variate
  // exactly as the reference's full-line read does. Widths 1, odd and even
  // middles, one short of full, and 0 (= all).
  CrossbarPair odd = MakeCrossbarTwins(13, 21);
  ExpectGatedCyclesBitIdentical(odd, {1, 7, 6, 20, 0}, {1, 5, 6, 12, 0});
}

// The quiet kernel accumulates the sensed lines in register blocks plus a
// scalar tail. Sensed widths below, at and past one block, and not a
// multiple of it, in both directions (the 37-row array gives the transpose
// two blocks and a tail), each checked again after every mutation kind: a
// mirror entry a mutation left stale shows as a code mismatch, since the
// reference kernel reads the cells themselves.
TEST(KernelDifferentialTest, QuietRawCyclesBitIdenticalAcrossBlockWidths) {
  for (const std::size_t rows : {std::size_t{13}, std::size_t{37}}) {
    SCOPED_TRACE(::testing::Message() << rows << "x21 array");
    CrossbarPair twins = MakeCrossbarTwins(rows, 21, Device::kQuiet);
    const std::vector<std::size_t> widths = {1, 7, 13, 16, 17, 21, 0};
    std::vector<std::size_t> heights = {1, 7, 13, 0};
    if (rows > 33) heights.insert(heights.end(), {16, 17, 33});
    ExpectGatedCyclesBitIdentical(twins, widths, heights);
    const std::uint64_t top = twins.fast.params().cell.levels() - 1;
    // Cells on driven lines in both directions (even row, column a
    // multiple of 3), moved to the opposite end of the level range so each
    // mutation changes a sensed code.
    for (Crossbar* array : {&twins.fast, &twins.reference}) {
      ASSERT_TRUE(array->ProgramCell(4, 6, 0).ok());
      ASSERT_TRUE(array->ProgramCell(6, 9, top).ok());
      ASSERT_TRUE(array->ProgramCell(10, 18, top).ok());
    }
    {
      SCOPED_TRACE("after ProgramCell");
      ExpectGatedCyclesBitIdentical(twins, widths, heights);
    }
    for (Crossbar* array : {&twins.fast, &twins.reference}) {
      array->InjectCellFault(4, 6, device::CellFault::kStuckOn);
      array->InjectCellFault(6, 9, device::CellFault::kStuckOff);
    }
    {
      SCOPED_TRACE("after InjectCellFault");
      ExpectGatedCyclesBitIdentical(twins, widths, heights);
    }
    twins.fast.Age(TimeNs::Micros(100.0));
    twins.reference.Age(TimeNs::Micros(100.0));
    {
      SCOPED_TRACE("after Age");
      ExpectGatedCyclesBitIdentical(twins, widths, heights);
    }
  }
}

// The fast kernel walks DrivePattern::lines instead of scanning every
// drive bit, so the list must name exactly the driven lines, in ascending
// (reference scan) order, and a reused pattern must forget the previous
// drive's lines. The DACs are 1-bit: a code above 1 is rejected, and so
// is a cycle driven with one.
TEST(DrivePatternTest, PrepareDriveListsExactlyTheDrivenLinesInOrder) {
  DrivePattern drive;
  const std::vector<std::uint64_t> codes = {0, 1, 0, 1, 1, 0, 0, 1};
  ASSERT_TRUE(PrepareDrive(codes, &drive).ok());
  ASSERT_EQ(drive.bits.size(), codes.size());
  std::vector<std::size_t> driven;
  for (std::size_t l = 0; l < codes.size(); ++l) {
    EXPECT_EQ(drive.bits[l], codes[l]);
    if (drive.bits[l] != 0) driven.push_back(l);
  }
  EXPECT_EQ(drive.lines, (std::vector<std::size_t>{1, 3, 4, 7}));
  EXPECT_EQ(drive.lines, driven);
  EXPECT_EQ(drive.active(), drive.lines.size());

  const std::vector<std::uint64_t> sparse = {0, 0, 0, 0, 0, 1, 0, 0};
  ASSERT_TRUE(PrepareDrive(sparse, &drive).ok());
  EXPECT_EQ(drive.lines, (std::vector<std::size_t>{5}));
  EXPECT_EQ(drive.active(), 1U);

  const std::vector<std::uint64_t> two = {0, 1, 2, 0};
  EXPECT_EQ(PrepareDrive(two, &drive).code(), ErrorCode::kOutOfRange);
  CrossbarPair twins = MakeCrossbarTwins(4, 5);
  EXPECT_EQ(twins.fast.Cycle(two).status().code(), ErrorCode::kOutOfRange);
  const std::vector<std::uint64_t> column_two = {0, 0, 2, 0, 0};
  EXPECT_EQ(twins.reference.CycleTranspose(column_two).status().code(),
            ErrorCode::kOutOfRange);
}

// LoadDriveBit drives only the first codes.size() lines, from one bit of
// each code, and leaves the lines past them undriven: the MVM engine's
// sweep loads each input bit of its logical lines into a wider array's
// pattern this way.
TEST(DrivePatternTest, LoadDriveBitDrivesOnlyTheLogicalLines) {
  const std::vector<std::uint64_t> codes = {0b101, 0b010, 0b000, 0b111, 0b100};
  DrivePattern drive;
  drive.bits.assign(8, 0);
  const std::vector<std::vector<std::size_t>> expected = {
      {0, 3}, {1, 3}, {0, 3, 4}, {}};
  for (int bit = 0; bit < 4; ++bit) {
    LoadDriveBit(codes, bit, &drive);
    EXPECT_EQ(drive.lines, expected[static_cast<std::size_t>(bit)])
        << "bit " << bit;
    ASSERT_EQ(drive.bits.size(), 8U);
    for (std::size_t l = 0; l < drive.bits.size(); ++l) {
      const std::uint64_t want = l < codes.size() ? (codes[l] >> bit) & 1 : 0;
      EXPECT_EQ(drive.bits[l], want) << "bit " << bit << " line " << l;
    }
  }
}

// An all-zero drive lists no line, so no cell conducts: the cycle costs
// only its ADC conversions (no read or drive energy, no MACs) and every
// sensed code is 0, in both directions and under both kernels.
TEST(DrivePatternTest, AllZeroDriveHasNoDrivenLinesAndNoReadEnergy) {
  CrossbarPair twins = MakeCrossbarTwins(13, 21);
  for (Crossbar* array : {&twins.fast, &twins.reference}) {
    const CrossbarParams& p = array->params();
    for (const CycleDirection dir :
         {CycleDirection::kForward, CycleDirection::kTranspose}) {
      const bool forward = dir == CycleDirection::kForward;
      const std::size_t driven = forward ? p.rows : p.cols;
      const std::size_t sensed_lines = forward ? p.cols : p.rows;
      DrivePattern drive;
      ASSERT_TRUE(
          PrepareDrive(std::vector<std::uint64_t>(driven, 0), &drive).ok());
      EXPECT_TRUE(drive.lines.empty());
      EXPECT_EQ(drive.active(), 0U);
      for (const std::size_t sensed : {std::size_t{0}, std::size_t{5}}) {
        const std::size_t digitised = sensed == 0 ? sensed_lines : sensed;
        std::vector<std::uint64_t> codes(sensed_lines, 7);
        Rng rng(kSeed);
        auto cost = array->CycleDriven(drive, dir, sensed, codes, &rng);
        ASSERT_TRUE(cost.ok());
        EXPECT_DOUBLE_EQ(cost->energy_pj, static_cast<double>(digitised) *
                                       p.adc.conversion_energy().pj);
        EXPECT_EQ(cost->operations, 0U);
        for (std::size_t k = 0; k < digitised; ++k) EXPECT_EQ(codes[k], 0U);
        // Entries past the sensed prefix are the caller's, untouched.
        for (std::size_t k = digitised; k < codes.size(); ++k) {
          EXPECT_EQ(codes[k], 7U);
        }
        // No line driven, no cell read: the noise stream did not move.
        Rng untouched(kSeed);
        EXPECT_EQ(rng.NextU64(), untouched.NextU64());
      }
    }
  }
}

// The array is bidirectional: a transpose cycle on W is a forward cycle on
// W^T, codes and cost alike. Both directions run through one cycle driver
// and one kernel per policy, so the fast-vs-reference suites cannot see a
// direction mistake in the shared driver (full scale, IR-drop divisor,
// sensed width); this orientation property can. Noise is off so the two
// arrays' cells read identically; the stuck-on cell moves with the
// transpose. A 12-bit ADC resolves the sub-percent current shift a wrong
// IR-drop divisor would cause.
TEST(KernelDifferentialTest, TransposeEqualsForwardOnTransposedArray) {
  constexpr std::size_t kRows = 13;
  constexpr std::size_t kCols = 21;
  for (device::KernelPolicy kernel :
       {device::KernelPolicy::kReference, device::KernelPolicy::kFastBitExact}) {
    CrossbarParams p = NoisyArrayParams(kernel);
    p.rows = kRows;
    p.cols = kCols;
    p.cell.read_noise_sigma = 0.0;
    p.cell.write_noise_sigma = 0.0;
    p.adc.bits = 12;
    CrossbarParams flipped_params = p;
    flipped_params.rows = kCols;
    flipped_params.cols = kRows;
    auto array = Crossbar::Create(p, Rng(kSeed));
    auto flipped = Crossbar::Create(flipped_params, Rng(kSeed));
    ASSERT_TRUE(array.ok() && flipped.ok());

    Rng lrng(kSeed + 7);
    const std::vector<std::uint64_t> levels = RandomLevels(p, lrng);
    std::vector<std::uint64_t> levels_t(levels.size());
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) {
        levels_t[c * kRows + r] = levels[r * kCols + c];
      }
    }
    ASSERT_TRUE(array->ProgramLevels(levels).ok());
    ASSERT_TRUE(flipped->ProgramLevels(levels_t).ok());
    array->InjectCellFault(2, 3, device::CellFault::kStuckOn);
    flipped->InjectCellFault(3, 2, device::CellFault::kStuckOn);

    std::vector<std::uint64_t> drive(kCols, 0);
    for (std::size_t c = 0; c < drive.size(); c += 3) drive[c] = 1;
    for (std::size_t sensed : {std::size_t{0}, std::size_t{5}}) {
      Rng transpose_rng(kSeed);
      Rng forward_rng(kSeed);
      auto t = array->CycleTranspose(drive, sensed, &transpose_rng);
      auto f = flipped->Cycle(drive, sensed, &forward_rng);
      ASSERT_TRUE(t.ok() && f.ok());
      const char* policy =
          kernel == device::KernelPolicy::kReference ? "reference" : "fast";
      EXPECT_EQ(t->column_codes, f->column_codes)
          << policy << ", sensed " << sensed;
      EXPECT_EQ(t->cost.latency_ns, f->cost.latency_ns) << policy;
      EXPECT_EQ(t->cost.operations, f->cost.operations) << policy;
      EXPECT_EQ(t->cost.energy_pj, f->cost.energy_pj) << policy;
    }
  }
}

// kFastNoise draws one tile rotation per driven line whatever the sensed
// width, so a gated cycle's sensed prefix equals the full-width cycle's.
TEST(KernelDifferentialTest, FastNoiseGatedPrefixMatchesFullWidth) {
  CrossbarParams p = NoisyArrayParams(device::KernelPolicy::kFastNoise);
  p.rows = 13;
  p.cols = 21;
  auto created = Crossbar::Create(p, Rng(kSeed));
  ASSERT_TRUE(created.ok());
  Crossbar& xbar = created.value();
  Rng lrng(kSeed + 7);
  ASSERT_TRUE(xbar.ProgramLevels(RandomLevels(p, lrng)).ok());

  std::vector<std::uint64_t> row_codes(p.rows, 0);
  for (std::size_t r = 0; r < row_codes.size(); r += 2) row_codes[r] = 1;
  std::vector<std::uint64_t> col_codes(p.cols, 0);
  for (std::size_t c = 0; c < col_codes.size(); c += 3) col_codes[c] = 1;
  for (std::size_t width : {std::size_t{1}, std::size_t{6}, std::size_t{12}}) {
    Rng full_rng(DeriveSeed(kSeed, width));
    Rng gated_rng(DeriveSeed(kSeed, width));
    auto full = xbar.Cycle(row_codes, 0, &full_rng);
    auto gated = xbar.Cycle(row_codes, width, &gated_rng);
    ASSERT_TRUE(full.ok() && gated.ok());
    for (std::size_t c = 0; c < width; ++c) {
      EXPECT_EQ(gated->column_codes[c], full->column_codes[c])
          << "forward width " << width << ", column " << c;
    }
    ExpectSameStreamState(gated_rng, full_rng, "fast-noise forward", width);

    auto full_t = xbar.CycleTranspose(col_codes, 0, &full_rng);
    auto gated_t = xbar.CycleTranspose(col_codes, width, &gated_rng);
    ASSERT_TRUE(full_t.ok() && gated_t.ok());
    for (std::size_t r = 0; r < width; ++r) {
      EXPECT_EQ(gated_t->column_codes[r], full_t->column_codes[r])
          << "transpose width " << width << ", row " << r;
    }
    ExpectSameStreamState(gated_rng, full_rng, "fast-noise transpose", width);
  }
}

// -- Conductance-mirror invalidation matrix ---------------------------------

CrossbarParams MirrorParams() {
  CrossbarParams p;
  p.rows = 16;
  p.cols = 16;
  p.cell.read_noise_sigma = 0.0;
  p.cell.write_noise_sigma = 0.0;
  p.cell.endurance_cycles = 0;
  p.ir_drop_alpha = 0.0;
  p.adc.bits = 12;
  return p;
}

// With noise, IR drop and write noise all off, a cycle's sensed codes are a
// pure function of the cells — so a stale mirror entry after any mutation
// produces a code mismatch against IdealColumnCurrents (which reads the
// cells directly, never the mirror).
void ExpectCyclesMatchIdeal(Crossbar& xbar,
                            std::span<const std::uint64_t> row_codes,
                            const char* context) {
  auto cycle = xbar.Cycle(row_codes);
  ASSERT_TRUE(cycle.ok()) << context;
  const std::vector<double> ideal = xbar.IdealColumnCurrents(row_codes);
  const double full_scale = xbar.FullScaleCurrent();
  for (std::size_t c = 0; c < xbar.cols(); ++c) {
    EXPECT_EQ(cycle->column_codes[c],
              xbar.params().adc.Encode(ideal[c], full_scale))
        << context << ", column " << c;
  }
}

TEST(MirrorInvalidationTest, EveryMutationKindRefreshesTheMirror) {
  auto created = Crossbar::Create(MirrorParams(), Rng(kSeed));
  ASSERT_TRUE(created.ok());
  Crossbar& xbar = created.value();
  std::vector<std::uint64_t> all_rows(xbar.rows(), 1);

  // Freshly constructed (every cell at g_off).
  ExpectCyclesMatchIdeal(xbar, all_rows, "after construction");

  // Full program.
  Rng lrng(kSeed + 8);
  auto levels = RandomLevels(xbar.params(), lrng);
  ASSERT_TRUE(xbar.ProgramLevels(levels).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after ProgramLevels");

  // Full reprogram to different levels.
  for (auto& l : levels) l = xbar.params().cell.levels() - 1 - l;
  ASSERT_TRUE(xbar.ProgramLevels(levels).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after reprogram");

  // Single-cell program.
  ASSERT_TRUE(xbar.ProgramCell(3, 5, 0).ok());
  ASSERT_TRUE(xbar.ProgramCell(3, 5, xbar.params().cell.levels() - 1).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after ProgramCell");

  // Aging drifts every cell.
  xbar.Age(TimeNs::Micros(100.0));
  ExpectCyclesMatchIdeal(xbar, all_rows, "after Age");

  // Fault injection and clearing.
  xbar.InjectCellFault(7, 7, device::CellFault::kStuckOn);
  xbar.InjectCellFault(1, 9, device::CellFault::kStuckOff);
  ExpectCyclesMatchIdeal(xbar, all_rows, "after InjectCellFault");
  xbar.InjectCellFault(7, 7, device::CellFault::kNone);
  ExpectCyclesMatchIdeal(xbar, all_rows, "after fault clear");
}

TEST(MirrorInvalidationTest, PartialDrivesSeeSingleCellUpdates) {
  auto created = Crossbar::Create(MirrorParams(), Rng(kSeed));
  ASSERT_TRUE(created.ok());
  Crossbar& xbar = created.value();
  Rng lrng(kSeed + 9);
  ASSERT_TRUE(xbar.ProgramLevels(RandomLevels(xbar.params(), lrng)).ok());

  std::vector<std::uint64_t> one_row(xbar.rows(), 0);
  one_row[4] = 1;
  ExpectCyclesMatchIdeal(xbar, one_row, "single driven row, pre-update");
  ASSERT_TRUE(xbar.ProgramCell(4, 0, 0).ok());
  xbar.InjectCellFault(4, 1, device::CellFault::kStuckOn);
  ExpectCyclesMatchIdeal(xbar, one_row, "single driven row, post-update");
}

// -- Concurrency contract for the transpose direction -----------------------

TEST(TransposeConcurrencyTest, ExternalRngKeepsConcurrentBackwardBitIdentical) {
  // One shared engine; every worker runs the backward pass with its own
  // derived noise stream. With an external Rng, CycleTranspose mutates no
  // crossbar state, so concurrent calls must be race-free (TSan runs this
  // suite) and bit-identical to the serial execution.
  auto created = MvmEngine::Create(
      NoisyEngineParams(device::KernelPolicy::kFastBitExact, false), 24, 20,
      Rng(kSeed));
  ASSERT_TRUE(created.ok());
  MvmEngine& engine = created.value();
  Rng wrng(kSeed + 10);
  ASSERT_TRUE(engine.ProgramWeights(RandomWeights(24 * 20, wrng)).ok());

  constexpr std::size_t kCalls = 16;
  std::vector<std::vector<double>> errors(kCalls, std::vector<double>(20));
  Rng erng(kSeed + 11);
  for (auto& e : errors) {
    for (double& v : e) v = erng.Uniform(-1.0, 1.0);
  }

  std::vector<std::vector<double>> serial(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    Rng rng(DeriveSeed(kSeed + 12, i));
    auto result = engine.ComputeTranspose(errors[i], &rng);
    ASSERT_TRUE(result.ok());
    serial[i] = result->y;
  }

  ThreadPool pool(4);
  std::vector<std::vector<double>> parallel(kCalls);
  pool.ParallelFor(kCalls, [&](std::size_t i) {
    Rng rng(DeriveSeed(kSeed + 12, i));
    auto result = engine.ComputeTranspose(errors[i], &rng);
    ASSERT_TRUE(result.ok());
    parallel[i] = result->y;
  });
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "call " << i;
  }
}

}  // namespace
}  // namespace cim::crossbar
