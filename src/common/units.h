// Physical units used throughout the simulator.
//
// Times are kept in nanoseconds and energies in picojoules as doubles inside
// thin strong types: the arithmetic stays trivial while the type system
// prevents mixing a latency with an energy. Powers are derived (pJ / ns ==
// mW), which keeps the §VI power comparisons honest — every reported power
// is an energy divided by the time over which it was spent.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace cim {

struct TimeNs {
  double ns = 0.0;

  constexpr TimeNs() = default;
  constexpr explicit TimeNs(double nanoseconds) : ns(nanoseconds) {}

  [[nodiscard]] static constexpr TimeNs Micros(double us) {
    return TimeNs(us * 1e3);
  }
  [[nodiscard]] static constexpr TimeNs Millis(double ms) {
    return TimeNs(ms * 1e6);
  }
  [[nodiscard]] static constexpr TimeNs Seconds(double s) {
    return TimeNs(s * 1e9);
  }

  [[nodiscard]] constexpr double seconds() const { return ns * 1e-9; }
  [[nodiscard]] constexpr double micros() const { return ns * 1e-3; }

  constexpr TimeNs& operator+=(TimeNs other) {
    ns += other.ns;
    return *this;
  }
  constexpr TimeNs& operator-=(TimeNs other) {
    ns -= other.ns;
    return *this;
  }
  friend constexpr TimeNs operator+(TimeNs a, TimeNs b) {
    return TimeNs(a.ns + b.ns);
  }
  friend constexpr TimeNs operator-(TimeNs a, TimeNs b) {
    return TimeNs(a.ns - b.ns);
  }
  friend constexpr TimeNs operator*(TimeNs a, double k) {
    return TimeNs(a.ns * k);
  }
  friend constexpr TimeNs operator*(double k, TimeNs a) {
    return TimeNs(a.ns * k);
  }
  friend constexpr TimeNs operator/(TimeNs a, double k) {
    return TimeNs(a.ns / k);
  }
  friend constexpr double operator/(TimeNs a, TimeNs b) {
    return a.ns / b.ns;
  }
  friend constexpr auto operator<=>(TimeNs a, TimeNs b) = default;
};

struct EnergyPj {
  double pj = 0.0;

  constexpr EnergyPj() = default;
  constexpr explicit EnergyPj(double picojoules) : pj(picojoules) {}

  [[nodiscard]] static constexpr EnergyPj Nano(double nj) {
    return EnergyPj(nj * 1e3);
  }
  [[nodiscard]] static constexpr EnergyPj Milli(double mj) {
    return EnergyPj(mj * 1e9);
  }

  [[nodiscard]] constexpr double joules() const { return pj * 1e-12; }

  constexpr EnergyPj& operator+=(EnergyPj other) {
    pj += other.pj;
    return *this;
  }
  friend constexpr EnergyPj operator+(EnergyPj a, EnergyPj b) {
    return EnergyPj(a.pj + b.pj);
  }
  friend constexpr EnergyPj operator-(EnergyPj a, EnergyPj b) {
    return EnergyPj(a.pj - b.pj);
  }
  friend constexpr EnergyPj operator*(EnergyPj a, double k) {
    return EnergyPj(a.pj * k);
  }
  friend constexpr EnergyPj operator*(double k, EnergyPj a) {
    return EnergyPj(a.pj * k);
  }
  friend constexpr EnergyPj operator/(EnergyPj a, double k) {
    return EnergyPj(a.pj / k);
  }
  friend constexpr double operator/(EnergyPj a, EnergyPj b) {
    return a.pj / b.pj;
  }
  friend constexpr auto operator<=>(EnergyPj a, EnergyPj b) = default;
};

// Average power over an interval, in watts. pJ/ns == mW, so scale by 1e-3.
[[nodiscard]] constexpr double AveragePowerWatts(EnergyPj energy,
                                                 TimeNs duration) {
  if (duration.ns <= 0.0) return 0.0;
  return (energy.pj / duration.ns) * 1e-3;
}

// Bytes-per-second from an amount moved over a duration.
[[nodiscard]] constexpr double BandwidthBytesPerSec(double bytes,
                                                    TimeNs duration) {
  if (duration.ns <= 0.0) return 0.0;
  return bytes / duration.seconds();
}

// True when no value is NaN or infinite. Parameter Validate methods check
// it because NaN passes every `x < bound` test, and an infinite latency or
// energy poisons every cost it reaches.
[[nodiscard]] inline bool AllFinite(std::initializer_list<double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

[[nodiscard]] std::string FormatTime(TimeNs t);
[[nodiscard]] std::string FormatEnergy(EnergyPj e);
[[nodiscard]] std::string FormatPowerWatts(double watts);

}  // namespace cim
