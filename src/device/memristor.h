// Behavioural memristor (ReRAM) device model.
//
// This is the substitution for the physical memristor arrays of the paper's
// Dot Product Engine (§VI): a multi-level conductance cell with
//   * bounded conductance range [g_off, g_on],
//   * discrete programmable levels (cell_bits),
//   * asymmetric write behaviour — SET (toward g_on) is faster than RESET
//     (toward g_off), and both are orders of magnitude slower than reads,
//     which is exactly the "asymmetric latency for writing memristors" the
//     paper calls out as the main scaling challenge,
//   * multiplicative (lognormal) read noise,
//   * conductance drift toward g_off over time (aging, §V.D),
//   * finite endurance after which the cell becomes stuck (fault model),
//   * per-operation energy accounting.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace cim::device {

enum class CellFault {
  kNone = 0,
  kStuckOff,  // stuck at g_off (open-circuit-like defect)
  kStuckOn,   // stuck at g_on (short-like defect)
};

struct MemristorParams {
  // Conductance range in siemens. TaOx-class defaults (ISAAC lineage).
  double g_on_siemens = 1.0 / 2e3;    // R_on = 2 kΩ
  double g_off_siemens = 1.0 / 2e6;   // R_off = 2 MΩ
  int cell_bits = 2;                  // 4 programmable levels

  // Timing. Reads are wordline pulses; writes are program-verify loops.
  TimeNs read_latency{10.0};
  TimeNs set_latency{100.0};     // toward higher conductance
  TimeNs reset_latency{1000.0};  // toward lower conductance (asymmetric)

  // Energy per operation.
  EnergyPj read_energy{0.5};
  EnergyPj write_energy{100.0};

  // Multiplicative read-noise sigma of ln(conductance).
  double read_noise_sigma = 0.02;

  // Write-verify tolerance as a fraction of one level step; the program
  // loop retries until within tolerance (bounded by max_write_iterations).
  double write_tolerance = 0.25;
  int max_write_iterations = 8;
  double write_noise_sigma = 0.1;  // per-pulse programming noise (of a step)

  // Endurance: expected number of write cycles before the cell degrades
  // into a stuck fault. 0 disables wear-out.
  std::uint64_t endurance_cycles = 100'000'000;

  // Drift: conductance decays toward g_off as g(t) = g0 * (t/t0)^-nu.
  double drift_nu = 0.005;
  TimeNs drift_t0{1000.0};

  [[nodiscard]] std::uint64_t levels() const {
    return std::uint64_t{1} << cell_bits;
  }
  // Conductance step between adjacent levels: the write-verify tolerance
  // and programming noise are fractions of it, and one weight digit is
  // worth one step of cell current per volt of drive.
  [[nodiscard]] double LevelStep() const {
    return (g_on_siemens - g_off_siemens) /
           static_cast<double>(levels() - 1);
  }
  // Conductance of a given level (linearly spaced between g_off and g_on).
  [[nodiscard]] double LevelConductance(std::uint64_t level) const;
  [[nodiscard]] Status Validate() const;
};

// Result of a program operation: how long it took, how much energy it used,
// and how many program-verify iterations ran.
struct ProgramResult {
  TimeNs latency;
  EnergyPj energy;
  int iterations = 0;
  bool verified = false;  // false when the loop exhausted its budget
};

struct ReadResult {
  double conductance_siemens = 0.0;
  TimeNs latency;
  EnergyPj energy;
};

// One cell's state as its owning array's planes hold it: the stored
// conductance and the fault. The shared MemristorParams is passed into every
// operation rather than stored, and the cell's write count lives with the
// array too, so an array of millions of cells keeps its state as a few
// planes with no per-cell struct. These functions are the cell physics; the
// crossbar loads one cell's plane entries into a CellState, applies them and
// stores the result back.
struct CellState {
  double conductance_siemens = 0.0;
  CellFault fault = CellFault::kNone;
};

// A never-programmed cell: at g_off, healthy.
[[nodiscard]] inline CellState FreshCell(const MemristorParams& p) {
  return {p.g_off_siemens, CellFault::kNone};
}

// The constants of one write-verify pass: every level's target
// conductance, the per-pulse noise sigma and the verify tolerance, each
// computed once with the expressions a lone cell write uses, so every value
// is bit-identical to a per-call recompute. A crossbar builds one per
// program pass and runs every cell of it through the one per-cell rule
// below. `p` must outlive the plan.
struct WriteVerifyPlan {
  explicit WriteVerifyPlan(const MemristorParams& p);

  const MemristorParams& params;
  double noise_sigma = 0.0;  // write_noise_sigma * LevelStep()
  double tolerance = 0.0;    // write_tolerance * LevelStep()
  // LevelConductance(level) for level < levels() (cell_bits <= 8).
  std::array<double, 256> target{};
};

// Program `cell` to `level` (0 .. levels-1) with a write-verify loop.
// `write_cycles` is the cell's write count including this write: past
// endurance_cycles the cell may wear out into a stuck fault. Programming a
// faulted cell reports verified=false but still costs time and energy (the
// controller cannot know until it verifies). Inline so a crossbar's
// program pass runs it without a call per cell.
inline ProgramResult ProgramCell(const WriteVerifyPlan& plan,
                                 std::uint64_t level,
                                 std::uint64_t write_cycles, CellState& cell,
                                 Rng& rng) {
  const MemristorParams& p = plan.params;
  CIM_DCHECK(level < p.levels());
  const double target = plan.target[level];

  ProgramResult result;

  // Wear-out: past the endurance budget the cell collapses into a stuck
  // fault with probability growing per extra cycle.
  if (p.endurance_cycles > 0 && write_cycles > p.endurance_cycles &&
      cell.fault == CellFault::kNone) {
    const double excess = static_cast<double>(write_cycles -
                                              p.endurance_cycles) /
                          static_cast<double>(p.endurance_cycles);
    if (rng.Bernoulli(std::min(1.0, excess))) {
      cell.fault =
          rng.Bernoulli(0.5) ? CellFault::kStuckOn : CellFault::kStuckOff;
    }
  }

  for (int iter = 0; iter < p.max_write_iterations; ++iter) {
    // Each iteration is one program pulse plus one verify read.
    const bool increasing = target > cell.conductance_siemens;
    result.latency += increasing ? p.set_latency : p.reset_latency;
    result.latency += p.read_latency;
    result.energy += p.write_energy + p.read_energy;
    ++result.iterations;

    if (cell.fault != CellFault::kNone) {
      cell.conductance_siemens = cell.fault == CellFault::kStuckOn
                                     ? p.g_on_siemens
                                     : p.g_off_siemens;
      continue;  // pulses do nothing; verify keeps failing
    }

    // Pulse moves conductance toward the target with programming noise.
    const double noise = rng.Gaussian(0.0, plan.noise_sigma);
    cell.conductance_siemens =
        std::clamp(target + noise, p.g_off_siemens, p.g_on_siemens);

    if (std::fabs(cell.conductance_siemens - target) <= plan.tolerance) {
      result.verified = true;
      break;
    }
  }
  return result;
}

// One cell write on its own: ProgramCell under a plan built for it.
ProgramResult ProgramCell(const MemristorParams& p, std::uint64_t level,
                          std::uint64_t write_cycles, CellState& cell,
                          Rng& rng);

// Read the instantaneous (noisy) conductance.
[[nodiscard]] ReadResult ReadCell(const MemristorParams& p,
                                  const CellState& cell, Rng& rng);

// Drift over `elapsed` of idle time: the factor (1 + t/t0)^-nu every cell
// of an array shares, or nullopt when nothing ages (elapsed <= 0 or
// drift_nu == 0).
[[nodiscard]] std::optional<double> DriftFactor(const MemristorParams& p,
                                                TimeNs elapsed);

// A conductance after drift by `factor`: power-law decay toward g_off.
[[nodiscard]] inline double Drifted(const MemristorParams& p,
                                    double conductance, double factor) {
  return p.g_off_siemens + (conductance - p.g_off_siemens) * factor;
}

}  // namespace cim::device
