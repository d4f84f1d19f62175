#include "device/memristor.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace cim::device {

double MemristorParams::LevelConductance(std::uint64_t level) const {
  // Out-of-range levels are a caller bug: the silent std::min clamp here
  // used to masquerade as a legitimate g_on programming target.
  CIM_DCHECK(level < levels());
  const auto top = static_cast<double>(levels() - 1);
  const double frac =
      top > 0.0 ? static_cast<double>(std::min(level, levels() - 1)) / top
                : 0.0;
  return g_off_siemens + frac * (g_on_siemens - g_off_siemens);
}

Status MemristorParams::Validate() const {
  if (!AllFinite({g_on_siemens, g_off_siemens, read_latency.ns,
                  set_latency.ns, reset_latency.ns, read_energy.pj,
                  write_energy.pj, read_noise_sigma, write_tolerance,
                  write_noise_sigma, drift_nu, drift_t0.ns})) {
    return InvalidArgument("memristor parameters must be finite");
  }
  if (read_latency.ns < 0.0 || set_latency.ns < 0.0 ||
      reset_latency.ns < 0.0 || read_energy.pj < 0.0 ||
      write_energy.pj < 0.0) {
    return InvalidArgument("cell latencies and energies must be >= 0");
  }
  if (!AllAtMost({read_latency.ns, set_latency.ns, reset_latency.ns},
                 kMaxEventLatencyNs) ||
      !AllAtMost({read_energy.pj, write_energy.pj}, kMaxEventEnergyPj)) {
    return InvalidArgument("a cell read or write pulse must cost <= 1 s and "
                           "<= 1 J");
  }
  if (g_on_siemens <= g_off_siemens) {
    return InvalidArgument("g_on must exceed g_off");
  }
  if (g_off_siemens <= 0.0) return InvalidArgument("g_off must be positive");
  if (cell_bits < 1 || cell_bits > 8) {
    return InvalidArgument("cell_bits must be in [1, 8]");
  }
  if (read_noise_sigma < 0.0 || write_noise_sigma < 0.0) {
    return InvalidArgument("noise sigmas must be non-negative");
  }
  // A negative tolerance admits no conductance, not even the exact target:
  // every program call would pulse max_write_iterations times and fail.
  if (write_tolerance < 0.0) {
    return InvalidArgument("write_tolerance must be non-negative");
  }
  // The cap bounds every program call: past it, a loop that cannot verify
  // (a tolerance below the write noise) would pulse each cell ~2^31 times.
  if (max_write_iterations < 1 || max_write_iterations > 64) {
    return InvalidArgument("max_write_iterations must be in [1, 64]");
  }
  // Age divides by it, and a negative one raises a negative base to -nu.
  if (drift_t0.ns <= 0.0) return InvalidArgument("drift_t0 must be positive");
  // Age models decay toward g_off (0 = no drift; it has no rising drift to
  // give a negative exponent). Measured RRAM/PCM exponents are ~0.001-0.1;
  // past 1 a cell would decay faster than 1/t.
  if (drift_nu < 0.0 || drift_nu > 1.0) {
    return InvalidArgument("drift_nu must be in [0, 1]");
  }
  return Status::Ok();
}

WriteVerifyPlan::WriteVerifyPlan(const MemristorParams& p) : params(p) {
  const double step = p.LevelStep();
  noise_sigma = p.write_noise_sigma * step;
  tolerance = p.write_tolerance * step;
  CIM_DCHECK(p.levels() <= target.size());
  const std::uint64_t levels =
      std::min<std::uint64_t>(p.levels(), target.size());
  for (std::uint64_t level = 0; level < levels; ++level) {
    target[level] = p.LevelConductance(level);
  }
}

ProgramResult ProgramCell(const MemristorParams& p, std::uint64_t level,
                          std::uint64_t write_cycles, CellState& cell,
                          Rng& rng) {
  return ProgramCell(WriteVerifyPlan(p), level, write_cycles, cell, rng);
}

ReadResult ReadCell(const MemristorParams& p, const CellState& cell,
                    Rng& rng) {
  ReadResult result;
  result.latency = p.read_latency;
  // Read energy is ohmic (V^2 * G * t): proportional to the cell's
  // conductance, with read_energy specifying the cost at g_on. Cells at
  // g_off cost ~1000x less — unused array regions are nearly free.
  result.energy = p.read_energy * (cell.conductance_siemens / p.g_on_siemens);
  double g = cell.conductance_siemens;
  if (cell.fault == CellFault::kStuckOn) g = p.g_on_siemens;
  if (cell.fault == CellFault::kStuckOff) g = p.g_off_siemens;
  if (p.read_noise_sigma > 0.0) {
    // The golden per-cell reference draw: this call DEFINES the noise
    // stream the bit-exact kernels must reproduce, so it stays a direct
    // draw rather than routing through NoiseModel::Factors.
    // cimlint: allow(lognormal-in-hot-path)
    g *= rng.LogNormal(0.0, p.read_noise_sigma);
  }
  result.conductance_siemens =
      std::clamp(g, 0.0, p.g_on_siemens * 1.5);  // soft physical ceiling
  return result;
}

std::optional<double> DriftFactor(const MemristorParams& p, TimeNs elapsed) {
  if (elapsed.ns <= 0.0 || p.drift_nu <= 0.0) return std::nullopt;
  // Power-law decay toward g_off: g -> g_off + (g - g_off) * (1+t/t0)^-nu.
  return std::pow(1.0 + elapsed.ns / p.drift_t0.ns, -p.drift_nu);
}

}  // namespace cim::device
