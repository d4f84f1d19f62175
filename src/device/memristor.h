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

#include <cstdint>

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

// The cell is deliberately tiny (state only); the shared MemristorParams is
// passed into every operation rather than stored, so arrays of millions of
// cells stay compact and cells remain trivially relocatable with their
// owning array.
class MemristorCell {
 public:
  explicit MemristorCell(const MemristorParams& params)
      : conductance_(params.g_off_siemens) {}

  // Program the cell to `level` (0 .. levels-1) with a write-verify loop.
  // Programming a faulted cell reports success=false but still costs time
  // and energy (the controller cannot know until it verifies).
  ProgramResult Program(const MemristorParams& params, std::uint64_t level,
                        Rng& rng);

  // Read the instantaneous (noisy) conductance.
  ReadResult Read(const MemristorParams& params, Rng& rng) const;

  // Noise-free conductance — used by golden models and tests.
  [[nodiscard]] double true_conductance() const { return conductance_; }

  // Apply drift for `elapsed` of idle time.
  void Age(const MemristorParams& params, TimeNs elapsed);

  // Fault handling.
  [[nodiscard]] CellFault fault() const { return fault_; }
  void InjectFault(CellFault fault);
  [[nodiscard]] std::uint64_t write_cycles() const { return write_cycles_; }

 private:
  double conductance_;
  CellFault fault_ = CellFault::kNone;
  std::uint64_t write_cycles_ = 0;
};

}  // namespace cim::device
