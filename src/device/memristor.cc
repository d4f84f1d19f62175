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
  // The cap bounds every program call: past it, a loop that cannot verify
  // (a tolerance below the write noise) would pulse each cell ~2^31 times.
  if (max_write_iterations < 1 || max_write_iterations > 64) {
    return InvalidArgument("max_write_iterations must be in [1, 64]");
  }
  // Age divides by it, and a negative one raises a negative base to -nu.
  if (drift_t0.ns <= 0.0) return InvalidArgument("drift_t0 must be positive");
  return Status::Ok();
}

ProgramResult MemristorCell::Program(const MemristorParams& p,
                                     std::uint64_t level, Rng& rng) {
  CIM_DCHECK(level < p.levels());
  const double target = p.LevelConductance(level);
  const double step = p.LevelStep();
  const double tolerance = p.write_tolerance * step;

  ProgramResult result;
  ++write_cycles_;

  // Wear-out: past the endurance budget the cell collapses into a stuck
  // fault with probability growing per extra cycle.
  if (p.endurance_cycles > 0 && write_cycles_ > p.endurance_cycles &&
      fault_ == CellFault::kNone) {
    const double excess = static_cast<double>(write_cycles_ -
                                              p.endurance_cycles) /
                          static_cast<double>(p.endurance_cycles);
    if (rng.Bernoulli(std::min(1.0, excess))) {
      fault_ = rng.Bernoulli(0.5) ? CellFault::kStuckOn : CellFault::kStuckOff;
    }
  }

  for (int iter = 0; iter < p.max_write_iterations; ++iter) {
    // Each iteration is one program pulse plus one verify read.
    const bool increasing = target > conductance_;
    result.latency += increasing ? p.set_latency : p.reset_latency;
    result.latency += p.read_latency;
    result.energy += p.write_energy + p.read_energy;
    ++result.iterations;

    if (fault_ != CellFault::kNone) {
      conductance_ = fault_ == CellFault::kStuckOn ? p.g_on_siemens
                                                   : p.g_off_siemens;
      continue;  // pulses do nothing; verify keeps failing
    }

    // Pulse moves conductance toward the target with programming noise.
    const double noise = rng.Gaussian(0.0, p.write_noise_sigma * step);
    conductance_ = std::clamp(target + noise, p.g_off_siemens, p.g_on_siemens);

    if (std::fabs(conductance_ - target) <= tolerance) {
      result.verified = true;
      break;
    }
  }
  return result;
}

ReadResult MemristorCell::Read(const MemristorParams& p,
                               Rng& rng) const {
  ReadResult result;
  result.latency = p.read_latency;
  // Read energy is ohmic (V^2 * G * t): proportional to the cell's
  // conductance, with read_energy specifying the cost at g_on. Cells at
  // g_off cost ~1000x less — unused array regions are nearly free.
  result.energy = p.read_energy * (conductance_ / p.g_on_siemens);
  double g = conductance_;
  if (fault_ == CellFault::kStuckOn) g = p.g_on_siemens;
  if (fault_ == CellFault::kStuckOff) g = p.g_off_siemens;
  if (p.read_noise_sigma > 0.0) {
    // The golden per-cell reference draw: this call DEFINES the noise
    // stream the bit-exact kernels must reproduce, so it stays a direct
    // draw rather than routing through NoiseModel::FillFactors.
    // cimlint: allow(lognormal-in-hot-path)
    g *= rng.LogNormal(0.0, p.read_noise_sigma);
  }
  result.conductance_siemens =
      std::clamp(g, 0.0, p.g_on_siemens * 1.5);  // soft physical ceiling
  return result;
}

void MemristorCell::Age(const MemristorParams& p, TimeNs elapsed) {
  if (elapsed.ns <= 0.0 || p.drift_nu <= 0.0) return;
  // Power-law decay toward g_off: g -> g_off + (g - g_off) * (1+t/t0)^-nu.
  const double factor =
      std::pow(1.0 + elapsed.ns / p.drift_t0.ns, -p.drift_nu);
  conductance_ = p.g_off_siemens + (conductance_ - p.g_off_siemens) * factor;
}

void MemristorCell::InjectFault(CellFault fault) { fault_ = fault; }

}  // namespace cim::device
