// Unit tests for the analog crossbar array and its periphery models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "crossbar/adc.h"
#include "crossbar/crossbar.h"

namespace cim::crossbar {
namespace {

CrossbarParams QuietParams(std::size_t rows = 16, std::size_t cols = 16) {
  CrossbarParams p;
  p.rows = rows;
  p.cols = cols;
  p.cell.read_noise_sigma = 0.0;
  p.cell.write_noise_sigma = 0.0;
  p.cell.endurance_cycles = 0;
  p.cell.drift_nu = 0.0;
  p.ir_drop_alpha = 0.0;
  p.adc.bits = 12;  // fine quantization for correctness tests
  return p;
}

TEST(AdcTest, EncodeDecodeRoundtrip) {
  AdcParams adc;
  adc.bits = 8;
  const double fs = 1e-3;
  for (double frac : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double current = frac * fs;
    const double decoded = adc.Decode(adc.Encode(current, fs), fs);
    EXPECT_NEAR(decoded, current, fs / 255.0);
  }
}

TEST(AdcTest, ClampsOutOfRange) {
  AdcParams adc;
  adc.bits = 4;
  EXPECT_EQ(adc.Encode(-1.0, 1.0), 0u);
  EXPECT_EQ(adc.Encode(2.0, 1.0), 15u);
}

TEST(AdcTest, EnergyScalesExponentiallyWithBits) {
  AdcParams a8;
  a8.bits = 8;
  AdcParams a10;
  a10.bits = 10;
  EXPECT_NEAR(a10.conversion_energy().pj / a8.conversion_energy().pj, 4.0,
              1e-9);
}

// RoundHalfAway replaces std::llround in AdcParams::Encode and
// std::max(0.0, std::round(x)) in the MVM engine's digit sums, so it must
// agree with both everywhere those callers can land: exactly, including
// +0.0 (never -0.0) for negative inputs.
class RoundHalfAwayTest : public ::testing::Test {
 protected:
  void Check(double x) {
    ++checked_;
    const std::uint64_t rounded = RoundHalfAway(x);
    const double expected = std::max(0.0, std::round(x));
    const auto got = static_cast<double>(rounded);
    bool ok = got == expected && !std::signbit(got) && !std::signbit(expected);
    if (x >= 0.0) {
      ok = ok && rounded == static_cast<std::uint64_t>(std::llround(x));
    }
    if (!ok && mismatches_++ == 0) first_ = x;
  }
  void ExpectNoMismatch() const {
    EXPECT_EQ(mismatches_, 0u) << "of " << checked_ << " values; first at "
                               << std::setprecision(17) << first_;
  }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
  double first_ = 0.0;
};

TEST_F(RoundHalfAwayTest, ZeroNegativesAndMaxCode) {
  for (const double x :
       {0.0, -0.0, -0.25, -0.5, -0.5000000000000001, -0.75, -1.0, -2.5,
        -65535.5, -1e300, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 65535.0, 65534.5,
        65535.49999999999, 65535.5}) {
    Check(x);
  }
  EXPECT_EQ(RoundHalfAway(65535.0), 65535u);
  EXPECT_EQ(RoundHalfAway(-0.75), 0u);
  ExpectNoMismatch();
}

TEST_F(RoundHalfAwayTest, EveryHalfwayPointBelowSixteenBitsAndItsNeighbours) {
  for (std::uint64_t n = 0; n < (std::uint64_t{1} << 16); ++n) {
    const double half = static_cast<double>(n) + 0.5;
    Check(half);
    Check(std::nextafter(half, 0.0));
    Check(std::nextafter(half, std::numeric_limits<double>::infinity()));
    Check(static_cast<double>(n));
  }
  // The largest double below one half: x + 0.5 rounds up to 1.0, so a
  // "truncate x + 0.5" shortcut returns 1 where llround returns 0.
  Check(0.49999999999999994);
  EXPECT_EQ(RoundHalfAway(0.49999999999999994), 0u);
  ExpectNoMismatch();
}

TEST_F(RoundHalfAwayTest, SeededUniforms) {
  Rng rng(0x5EED'0A0CULL);
  for (int i = 0; i < 100'000; ++i) Check(rng.Uniform(0.0, 65536.0));
  for (int i = 0; i < 100'000; ++i) Check(rng.Uniform(-4.0, 4.0));
  ExpectNoMismatch();
}

TEST(DacTest, OneBitLevels) {
  DacParams dac;
  EXPECT_DOUBLE_EQ(dac.LevelVoltage(0), 0.0);
  EXPECT_DOUBLE_EQ(dac.LevelVoltage(1), dac.v_read);
}

TEST(CrossbarParamsTest, Validation) {
  EXPECT_TRUE(QuietParams().Validate().ok());
  CrossbarParams p = QuietParams();
  p.rows = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.columns_per_adc = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = QuietParams();
  p.ir_drop_alpha = 1.0;
  EXPECT_FALSE(p.Validate().ok());
}

// A read voltage <= 0 inverts the ADC's clamp range (negative) or drives
// no current (zero: every MVM reads 0), and NaN passes every `x < bound`
// comparison. Each case here returned OK before Validate checked it.
TEST(CrossbarParamsTest, RejectsNonPositiveReadVoltageAndNonFiniteValues) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {0.0, -0.0, -0.2, kNaN, kInf}) {
    CrossbarParams p = QuietParams();
    p.dac.v_read = v;
    EXPECT_FALSE(p.Validate().ok()) << "v_read " << v;
    EXPECT_FALSE(Crossbar::Create(p, Rng(1)).ok()) << "v_read " << v;
  }
  const std::vector<std::pair<const char*, void (*)(CrossbarParams&)>>
      cases = {
          {"ir_drop_alpha NaN",
           [](CrossbarParams& p) { p.ir_drop_alpha = kNaN; }},
          {"g_on NaN", [](CrossbarParams& p) { p.cell.g_on_siemens = kNaN; }},
          {"g_on inf", [](CrossbarParams& p) { p.cell.g_on_siemens = kInf; }},
          {"g_off NaN",
           [](CrossbarParams& p) { p.cell.g_off_siemens = kNaN; }},
          {"read sigma NaN",
           [](CrossbarParams& p) { p.cell.read_noise_sigma = kNaN; }},
          {"write sigma NaN",
           [](CrossbarParams& p) { p.cell.write_noise_sigma = kNaN; }},
          {"read latency inf",
           [](CrossbarParams& p) { p.cell.read_latency = TimeNs(kInf); }},
          {"adc energy NaN",
           [](CrossbarParams& p) { p.adc.base_energy = EnergyPj(kNaN); }},
          {"dac settle -inf",
           [](CrossbarParams& p) { p.dac.settle_latency = TimeNs(-kInf); }},
          {"adc reference bits 0",
           [](CrossbarParams& p) { p.adc.reference_bits = 0; }},
          {"adc reference bits INT_MIN",
           [](CrossbarParams& p) {
             p.adc.reference_bits = std::numeric_limits<int>::min();
           }},
          {"drift t0 0", [](CrossbarParams& p) { p.cell.drift_t0 = TimeNs(); }},
          {"65 write iterations",
           [](CrossbarParams& p) { p.cell.max_write_iterations = 65; }},
      };
  for (const auto& [name, mutate] : cases) {
    CrossbarParams p = QuietParams();
    mutate(p);
    EXPECT_FALSE(p.Validate().ok()) << name;
  }
}

// Converter widths outside [1, 16] have no valid code range: 0 bits makes
// Decode divide by a max code of 0, 64 bits shifts a uint64_t by its full
// width. Both ends of the range stay valid.
TEST(CrossbarParamsTest, ConverterBitsBoundedToOneThroughSixteen) {
  for (const int bits : {1, 8, 16}) {
    CrossbarParams p = QuietParams();
    p.adc.bits = bits;
    EXPECT_TRUE(p.Validate().ok()) << "adc.bits " << bits;
    p = QuietParams();
    p.dac.bits = bits;
    EXPECT_TRUE(p.Validate().ok()) << "dac.bits " << bits;
  }
  for (const int bits : {-1, 0, 17, 63, 64}) {
    CrossbarParams p = QuietParams();
    p.adc.bits = bits;
    EXPECT_FALSE(p.Validate().ok()) << "adc.bits " << bits;
    EXPECT_FALSE(Crossbar::Create(p, Rng(1)).ok()) << "adc.bits " << bits;
    p = QuietParams();
    p.dac.bits = bits;
    EXPECT_FALSE(p.Validate().ok()) << "dac.bits " << bits;
    EXPECT_FALSE(Crossbar::Create(p, Rng(1)).ok()) << "dac.bits " << bits;
    DrivePattern drive;
    EXPECT_FALSE(
        PrepareDrive(p.dac, std::vector<std::uint64_t>(4, 0), &drive).ok())
        << "dac.bits " << bits;
  }
}

TEST(CrossbarTest, CreateRejectsBadParams) {
  CrossbarParams p = QuietParams();
  p.rows = 0;
  EXPECT_FALSE(Crossbar::Create(p, Rng(1)).ok());
}

TEST(CrossbarTest, ProgramRejectsWrongSizeAndRange) {
  auto xbar = Crossbar::Create(QuietParams(4, 4), Rng(1));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> too_small(8, 0);
  EXPECT_EQ(xbar->ProgramLevels(too_small).status().code(),
            ErrorCode::kInvalidArgument);
  std::vector<std::uint64_t> out_of_range(16, 99);
  EXPECT_EQ(xbar->ProgramLevels(out_of_range).status().code(),
            ErrorCode::kOutOfRange);
}

TEST(CrossbarTest, CycleRejectsWrongDrive) {
  auto xbar = Crossbar::Create(QuietParams(4, 4), Rng(1));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> levels(16, 1);
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());
  std::vector<std::uint64_t> wrong_size(3, 0);
  EXPECT_FALSE(xbar->Cycle(wrong_size).ok());
  std::vector<std::uint64_t> bad_code(4, 7);  // 1-bit DAC
  EXPECT_EQ(xbar->Cycle(bad_code).status().code(), ErrorCode::kOutOfRange);
}

TEST(CrossbarTest, SensedCurrentsMatchIdealWithinAdcStep) {
  const CrossbarParams p = QuietParams(8, 8);
  auto xbar = Crossbar::Create(p, Rng(2));
  ASSERT_TRUE(xbar.ok());
  Rng level_rng(3);
  std::vector<std::uint64_t> levels(64);
  for (auto& level : levels) level = level_rng.NextBounded(p.cell.levels());
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());

  std::vector<std::uint64_t> drive(8);
  for (auto& d : drive) d = level_rng.NextBounded(2);
  auto cycle = xbar->Cycle(drive);
  ASSERT_TRUE(cycle.ok());
  const std::vector<double> ideal = xbar->IdealColumnCurrents(drive);
  const double lsb = xbar->FullScaleCurrent() /
                     static_cast<double>((1ULL << p.adc.bits) - 1);
  for (std::size_t c = 0; c < 8; ++c) {
    const double sensed =
        p.adc.Decode(cycle->column_codes[c], xbar->FullScaleCurrent());
    EXPECT_NEAR(sensed, ideal[c], lsb);
  }
}

TEST(CrossbarTest, AllRowsActiveGivesMaxCurrentOnFullyOnColumn) {
  CrossbarParams p = QuietParams(8, 2);
  auto xbar = Crossbar::Create(p, Rng(4));
  ASSERT_TRUE(xbar.ok());
  // Column 0 fully on, column 1 fully off.
  std::vector<std::uint64_t> levels(16, 0);
  for (std::size_t r = 0; r < 8; ++r) levels[r * 2] = p.cell.levels() - 1;
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());
  std::vector<std::uint64_t> drive(8, 1);
  auto cycle = xbar->Cycle(drive);
  ASSERT_TRUE(cycle.ok());
  const std::uint64_t max_code = (1ULL << p.adc.bits) - 1;
  EXPECT_EQ(cycle->column_codes[0], max_code);
  EXPECT_LT(cycle->column_codes[1], max_code / 100);
}

TEST(CrossbarTest, IrDropAttenuatesWithActiveRows) {
  CrossbarParams p = QuietParams(16, 1);
  p.ir_drop_alpha = 0.2;
  auto xbar = Crossbar::Create(p, Rng(5));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> levels(16, p.cell.levels() - 1);
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());

  std::vector<std::uint64_t> one_row(16, 0);
  one_row[0] = 1;
  std::vector<std::uint64_t> all_rows(16, 1);
  auto few = xbar->Cycle(one_row);
  auto many = xbar->Cycle(all_rows);
  ASSERT_TRUE(few.ok() && many.ok());
  const double fs = xbar->FullScaleCurrent();
  const double sensed_few = p.adc.Decode(few->column_codes[0], fs);
  const double sensed_many = p.adc.Decode(many->column_codes[0], fs);
  // With 20% worst-case IR drop, 16 active rows deliver less than 16x the
  // single-row current.
  EXPECT_LT(sensed_many, 16.0 * sensed_few * 0.9);
}

TEST(CrossbarTest, CycleEnergyGrowsWithActiveRows) {
  const CrossbarParams p = QuietParams(16, 16);
  auto xbar = Crossbar::Create(p, Rng(6));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> levels(256, 1);
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());
  std::vector<std::uint64_t> one(16, 0);
  one[0] = 1;
  std::vector<std::uint64_t> all(16, 1);
  auto cycle_one = xbar->Cycle(one);
  auto cycle_all = xbar->Cycle(all);
  ASSERT_TRUE(cycle_one.ok() && cycle_all.ok());
  EXPECT_GT(cycle_all->cost.energy_pj, cycle_one->cost.energy_pj);
}

TEST(CrossbarTest, ProgramLatencyDominatedByRowCount) {
  auto small = Crossbar::Create(QuietParams(4, 16), Rng(7));
  auto large = Crossbar::Create(QuietParams(16, 16), Rng(7));
  ASSERT_TRUE(small.ok() && large.ok());
  std::vector<std::uint64_t> small_levels(64, 1);
  std::vector<std::uint64_t> large_levels(256, 1);
  auto small_cost = small->ProgramLevels(small_levels);
  auto large_cost = large->ProgramLevels(large_levels);
  ASSERT_TRUE(small_cost.ok() && large_cost.ok());
  EXPECT_NEAR(large_cost->latency_ns / small_cost->latency_ns, 4.0, 1.0);
}

TEST(CrossbarTest, FaultInjectionVisibleInCounts) {
  auto xbar = Crossbar::Create(QuietParams(4, 4), Rng(8));
  ASSERT_TRUE(xbar.ok());
  EXPECT_EQ(xbar->CountFaultedCells(), 0u);
  xbar->InjectCellFault(1, 2, device::CellFault::kStuckOn);
  xbar->InjectCellFault(3, 3, device::CellFault::kStuckOff);
  EXPECT_EQ(xbar->CountFaultedCells(), 2u);
}

TEST(CrossbarTest, StuckOnFaultInflatesColumnCurrent) {
  const CrossbarParams p = QuietParams(8, 1);
  auto xbar = Crossbar::Create(p, Rng(9));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> levels(8, 0);  // all cells at g_off
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());
  std::vector<std::uint64_t> drive(8, 1);
  auto clean = xbar->Cycle(drive);
  xbar->InjectCellFault(0, 0, device::CellFault::kStuckOn);
  auto faulty = xbar->Cycle(drive);
  ASSERT_TRUE(clean.ok() && faulty.ok());
  EXPECT_GT(faulty->column_codes[0], clean->column_codes[0]);
}

TEST(CrossbarTest, AgingReducesSensedCurrent) {
  CrossbarParams p = QuietParams(8, 1);
  p.cell.drift_nu = 0.05;
  auto xbar = Crossbar::Create(p, Rng(10));
  ASSERT_TRUE(xbar.ok());
  std::vector<std::uint64_t> levels(8, p.cell.levels() - 1);
  ASSERT_TRUE(xbar->ProgramLevels(levels).ok());
  std::vector<std::uint64_t> drive(8, 1);
  auto before = xbar->Cycle(drive);
  xbar->Age(TimeNs::Seconds(100.0));
  auto after = xbar->Cycle(drive);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(after->column_codes[0], before->column_codes[0]);
}

TEST(CrossbarTest, MvmCycleLatencyIndependentOfRows) {
  // The analog MVM is O(1) in array time: latency is periphery-dominated,
  // not row-count dominated. (This is the physical root of the paper's
  // bandwidth claim.)
  auto small = Crossbar::Create(QuietParams(8, 8), Rng(11));
  auto large = Crossbar::Create(QuietParams(64, 8), Rng(11));
  ASSERT_TRUE(small.ok() && large.ok());
  std::vector<std::uint64_t> small_levels(64, 1);
  std::vector<std::uint64_t> large_levels(512, 1);
  ASSERT_TRUE(small->ProgramLevels(small_levels).ok());
  ASSERT_TRUE(large->ProgramLevels(large_levels).ok());
  auto small_cycle = small->Cycle(std::vector<std::uint64_t>(8, 1));
  auto large_cycle = large->Cycle(std::vector<std::uint64_t>(64, 1));
  ASSERT_TRUE(small_cycle.ok() && large_cycle.ok());
  EXPECT_DOUBLE_EQ(small_cycle->cost.latency_ns,
                   large_cycle->cost.latency_ns);
}

// The cycle latency a crossbar reports is the one rule the analytical DPE
// model also prices with, bit for bit, at every sensed width — forward and
// transposed — and the rule is the settle + read + serial-conversion sum.
TEST(CrossbarTest, CycleLatencyIsTheSharedRule) {
  CrossbarParams p = QuietParams(128, 128);
  p.adc.bits = 8;
  auto xbar = Crossbar::Create(p, Rng(12));
  ASSERT_TRUE(xbar.ok());
  ASSERT_TRUE(
      xbar->ProgramLevels(std::vector<std::uint64_t>(128 * 128, 1)).ok());
  const std::vector<std::uint64_t> drive(128, 1);
  for (const std::size_t sensed : {1u, 24u, 128u}) {
    auto forward = xbar->Cycle(drive, sensed);
    auto transposed = xbar->CycleTranspose(drive, sensed);
    ASSERT_TRUE(forward.ok() && transposed.ok());
    EXPECT_EQ(forward->cost.latency_ns, p.CycleLatencyNs(sensed)) << sensed;
    EXPECT_EQ(transposed->cost.latency_ns, p.CycleLatencyNs(sensed))
        << sensed;
    EXPECT_EQ(p.CycleLatencyNs(sensed),
              p.dac.settle_latency.ns + p.cell.read_latency.ns +
                  static_cast<double>(sensed) * p.adc.conversion_latency().ns)
        << sensed;
  }
  // Past columns_per_adc the conversions split across parallel ADCs.
  p.columns_per_adc = 16;
  EXPECT_EQ(p.CycleLatencyNs(24), p.CycleLatencyNs(16));
  EXPECT_EQ(p.CycleLatencyNs(128), p.CycleLatencyNs(16));
}

}  // namespace
}  // namespace cim::crossbar
