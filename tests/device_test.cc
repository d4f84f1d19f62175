// Unit tests for the memristor device model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/rng.h"
#include "device/memristor.h"

namespace cim::device {
namespace {

MemristorParams QuietParams() {
  MemristorParams p;
  p.read_noise_sigma = 0.0;
  p.write_noise_sigma = 0.0;
  p.endurance_cycles = 0;  // disable wear-out
  p.drift_nu = 0.0;        // disable drift
  return p;
}

TEST(MemristorParamsTest, DefaultsValidate) {
  EXPECT_TRUE(MemristorParams{}.Validate().ok());
}

TEST(MemristorParamsTest, RejectsInvertedConductanceRange) {
  MemristorParams p;
  p.g_on_siemens = p.g_off_siemens / 2;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(MemristorParamsTest, RejectsBadCellBits) {
  MemristorParams p;
  p.cell_bits = 0;
  EXPECT_FALSE(p.Validate().ok());
  p.cell_bits = 9;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(MemristorParamsTest, RejectsNegativeWriteTolerance) {
  // A negative tolerance admits no conductance, so no write could verify.
  MemristorParams p;
  p.write_tolerance = 0.0;
  EXPECT_TRUE(p.Validate().ok());
  p.write_tolerance = -std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(MemristorParamsTest, LevelConductanceSpansRange) {
  MemristorParams p;
  p.cell_bits = 2;
  EXPECT_DOUBLE_EQ(p.LevelConductance(0), p.g_off_siemens);
  EXPECT_DOUBLE_EQ(p.LevelConductance(3), p.g_on_siemens);
  EXPECT_GT(p.LevelConductance(2), p.LevelConductance(1));
}

// The cell physics are functions over one cell's state (the entries an
// array's planes hold for it) and its write count, which each test keeps
// as locals the way a crossbar keeps them in its planes.

TEST(MemristorCellTest, ProgramReachesTargetWithoutNoise) {
  const MemristorParams p = QuietParams();
  CellState cell = FreshCell(p);
  std::uint64_t writes = 0;
  Rng rng(1);
  for (std::uint64_t level = 0; level < p.levels(); ++level) {
    const ProgramResult r = ProgramCell(p, level, ++writes, cell, rng);
    EXPECT_TRUE(r.verified);
    EXPECT_NEAR(cell.conductance_siemens, p.LevelConductance(level), 1e-12);
  }
}

TEST(MemristorCellTest, ProgramConvergesWithNoise) {
  MemristorParams p = QuietParams();
  p.write_noise_sigma = 0.1;
  CellState cell = FreshCell(p);
  std::uint64_t writes = 0;
  Rng rng(2);
  int verified = 0;
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const ProgramResult r = ProgramCell(p, i % p.levels(), ++writes, cell, rng);
    if (r.verified) ++verified;
  }
  // Write-verify should almost always converge within the iteration budget.
  EXPECT_GT(verified, kTrials * 9 / 10);
}

TEST(MemristorCellTest, WriteIsSlowerThanRead) {
  const MemristorParams p = QuietParams();
  CellState cell = FreshCell(p);
  Rng rng(3);
  const ProgramResult w = ProgramCell(p, p.levels() - 1, 1, cell, rng);
  const ReadResult r = ReadCell(p, cell, rng);
  EXPECT_GT(w.latency.ns, 5.0 * r.latency.ns);
}

TEST(MemristorCellTest, ResetSlowerThanSet) {
  // Asymmetric write latency (§VI): moving conductance down (RESET) costs
  // more than moving it up (SET).
  const MemristorParams p = QuietParams();
  Rng rng(4);
  CellState up = FreshCell(p);
  const ProgramResult set =
      ProgramCell(p, p.levels() - 1, 1, up, rng);  // from g_off up
  CellState down = FreshCell(p);
  (void)ProgramCell(p, p.levels() - 1, 1, down, rng);
  const ProgramResult reset = ProgramCell(p, 0, 2, down, rng);  // g_on down
  EXPECT_GT(reset.latency.ns, set.latency.ns);
}

TEST(MemristorCellTest, ReadNoiseIsMultiplicative) {
  MemristorParams p = QuietParams();
  p.read_noise_sigma = 0.05;
  CellState cell = FreshCell(p);
  Rng rng(5);
  (void)ProgramCell(p, p.levels() - 1, 1, cell, rng);
  double lo = 1e9, hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double g = ReadCell(p, cell, rng).conductance_siemens;
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT(lo, cell.conductance_siemens);
  EXPECT_GT(hi, cell.conductance_siemens);
  // Spread should be roughly +-20% at sigma=0.05 (4 sigma), not wild.
  EXPECT_GT(lo, cell.conductance_siemens * 0.7);
  EXPECT_LT(hi, cell.conductance_siemens * 1.4);
}

TEST(MemristorCellTest, StuckFaultsPinTheReadValue) {
  const MemristorParams p = QuietParams();
  Rng rng(6);
  CellState cell = FreshCell(p);
  (void)ProgramCell(p, 1, 1, cell, rng);
  cell.fault = CellFault::kStuckOn;
  EXPECT_DOUBLE_EQ(ReadCell(p, cell, rng).conductance_siemens, p.g_on_siemens);
  cell.fault = CellFault::kStuckOff;
  EXPECT_DOUBLE_EQ(ReadCell(p, cell, rng).conductance_siemens,
                   p.g_off_siemens);
}

TEST(MemristorCellTest, ProgrammingFaultedCellFailsVerification) {
  const MemristorParams p = QuietParams();
  Rng rng(7);
  CellState cell = FreshCell(p);
  cell.fault = CellFault::kStuckOff;
  const ProgramResult r = ProgramCell(p, p.levels() - 1, 1, cell, rng);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.iterations, p.max_write_iterations);
}

TEST(MemristorCellTest, WearOutEventuallySticks) {
  MemristorParams p = QuietParams();
  p.endurance_cycles = 50;
  CellState cell = FreshCell(p);
  std::uint64_t writes = 0;
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    (void)ProgramCell(p, i % p.levels(), ++writes, cell, rng);
    if (cell.fault != CellFault::kNone) break;
  }
  EXPECT_NE(cell.fault, CellFault::kNone);
  EXPECT_GT(writes, 50u);
}

TEST(MemristorCellTest, DriftDecaysTowardGoff) {
  MemristorParams p = QuietParams();
  p.drift_nu = 0.05;
  CellState cell = FreshCell(p);
  Rng rng(9);
  (void)ProgramCell(p, p.levels() - 1, 1, cell, rng);
  const double before = cell.conductance_siemens;
  const std::optional<double> second = DriftFactor(p, TimeNs::Seconds(1.0));
  ASSERT_TRUE(second.has_value());
  const double after = Drifted(p, before, *second);
  EXPECT_LT(after, before);
  EXPECT_GT(after, p.g_off_siemens);
  // More aging keeps decaying monotonically.
  const std::optional<double> more = DriftFactor(p, TimeNs::Seconds(10.0));
  ASSERT_TRUE(more.has_value());
  EXPECT_LT(Drifted(p, after, *more), after);
}

TEST(MemristorCellTest, NothingAgesWithoutTimeOrDrift) {
  MemristorParams p = QuietParams();
  p.drift_nu = 0.05;
  EXPECT_FALSE(DriftFactor(p, TimeNs(0.0)).has_value());
  EXPECT_FALSE(DriftFactor(p, TimeNs(-1.0)).has_value());
  p.drift_nu = 0.0;
  EXPECT_FALSE(DriftFactor(p, TimeNs::Seconds(1.0)).has_value());
}

TEST(MemristorCellTest, EnergyAccountedPerOperation) {
  const MemristorParams p = QuietParams();
  CellState cell = FreshCell(p);
  Rng rng(11);
  const ProgramResult w = ProgramCell(p, p.levels() - 1, 1, cell, rng);
  EXPECT_GT(w.energy.pj, 0.0);
  // At g_on the read costs the full specified read energy.
  const ReadResult r = ReadCell(p, cell, rng);
  EXPECT_DOUBLE_EQ(r.energy.pj, p.read_energy.pj);
  EXPECT_GT(w.energy.pj, r.energy.pj);
}

TEST(MemristorCellTest, ReadEnergyScalesWithConductance) {
  // Ohmic read: a cell at g_off draws ~1000x less than one at g_on.
  const MemristorParams p = QuietParams();
  Rng rng(12);
  CellState on_cell = FreshCell(p);
  (void)ProgramCell(p, p.levels() - 1, 1, on_cell, rng);
  CellState off_cell = FreshCell(p);
  (void)ProgramCell(p, 0, 1, off_cell, rng);
  EXPECT_GT(ReadCell(p, on_cell, rng).energy.pj,
            100.0 * ReadCell(p, off_cell, rng).energy.pj);
}

}  // namespace
}  // namespace cim::device
