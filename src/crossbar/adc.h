// DAC / ADC circuit models for the analog crossbar periphery.
//
// The DPE (§VI, ISAAC lineage) feeds inputs through row DACs and senses
// column currents through shared ADCs. The ADC dominates periphery energy
// and scales roughly exponentially with resolution, which is why the
// bit-sliced design keeps per-conversion resolution low — the ABL-ADC
// ablation bench sweeps exactly this trade-off.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/units.h"

namespace cim::crossbar {

// Round half away from zero for the digital periphery's non-negative
// quantities (ADC codes, digit sums): truncate, then carry 1 when the exact
// remainder is at least one half. The remainder x - trunc(x) is exact for
// every finite x >= 0 (Sterbenz), so on [0, 2^63) this equals
// std::llround(x) and std::round(x), without the libm call in the
// per-conversion loop. A negative x, -0.0 or NaN gives 0, as
// std::max(0.0, std::round(x)) does; x >= 2^63 is outside the domain (ADC
// codes are below 2^16, and digit sums are bounded by the array's cells).
[[nodiscard]] inline std::uint64_t RoundHalfAway(double x) {
  if (!(x > 0.0)) return 0;
  const auto whole = static_cast<std::uint64_t>(x);
  return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

struct AdcParams {
  int bits = 8;  // in [1, 16] (CrossbarParams::Validate)
  // SAR-class ADC at 1.28 GS/s (ISAAC's operating point): ~0.78 ns and
  // ~12.5 pJ per conversion at 8 bits. Energy scales ~2^bits, latency is
  // roughly linear in bits for a SAR.
  TimeNs base_latency{0.78};
  EnergyPj base_energy{12.5};
  int reference_bits = 8;  // operating point the base numbers describe

  [[nodiscard]] TimeNs conversion_latency() const {
    return base_latency * (static_cast<double>(bits) /
                           static_cast<double>(reference_bits));
  }
  // How a converter's energy and area scale with resolution around the
  // reference point: 2^(bits - reference_bits). Exact (the exponent can be
  // negative); bit-identical to the std::pow(2.0, n) it replaced, minus the
  // libm call — conversion_energy runs once per sensed line per cycle.
  [[nodiscard]] double ResolutionScale() const {
    return std::ldexp(1.0, bits - reference_bits);
  }
  [[nodiscard]] EnergyPj conversion_energy() const {
    return base_energy * ResolutionScale();
  }

  // Quantize a current in [0, full_scale] to a code, then back to amperes.
  [[nodiscard]] std::uint64_t Encode(double current, double full_scale) const {
    const std::uint64_t max_code = (std::uint64_t{1} << bits) - 1;
    const double clamped = std::clamp(current, 0.0, full_scale);
    return RoundHalfAway(clamped / full_scale * static_cast<double>(max_code));
  }
  [[nodiscard]] double Decode(std::uint64_t code, double full_scale) const {
    const std::uint64_t max_code = (std::uint64_t{1} << bits) - 1;
    return static_cast<double>(code) / static_cast<double>(max_code) *
           full_scale;
  }
};

struct DacParams {
  // ISAAC streams inputs bit-serially through 1-bit DACs; in [1, 16]
  // (CrossbarParams::Validate).
  int bits = 1;
  TimeNs settle_latency{1.0};
  EnergyPj drive_energy{0.2};  // per row per pulse
  double v_read = 0.2;         // read voltage in volts

  [[nodiscard]] double LevelVoltage(std::uint64_t code) const {
    const std::uint64_t max_code = (std::uint64_t{1} << bits) - 1;
    return v_read * static_cast<double>(code) / static_cast<double>(max_code);
  }
};

}  // namespace cim::crossbar
