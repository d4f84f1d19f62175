#include "common/units.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace cim {
namespace {

// Render `value` with an SI prefix picked so the mantissa lands in [1, 1000).
std::string WithSiPrefix(double value, const char* unit) {
  struct Scale {
    double factor;
    const char* prefix;
  };
  static constexpr std::array<Scale, 9> kScales{{{1e12, "T"},
                                                 {1e9, "G"},
                                                 {1e6, "M"},
                                                 {1e3, "k"},
                                                 {1.0, ""},
                                                 {1e-3, "m"},
                                                 {1e-6, "u"},
                                                 {1e-9, "n"},
                                                 {1e-12, "p"}}};
  const double magnitude = std::fabs(value);
  for (const auto& scale : kScales) {
    if (magnitude >= scale.factor || scale.factor == 1e-12) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3g %s%s", value / scale.factor,
                    scale.prefix, unit);
      return buf;
    }
  }
  return "0 " + std::string(unit);
}

}  // namespace

std::string FormatTime(TimeNs t) {
  return WithSiPrefix(t.seconds(), "s");
}

std::string FormatEnergy(EnergyPj e) {
  return WithSiPrefix(e.joules(), "J");
}

std::string FormatPowerWatts(double watts) {
  return WithSiPrefix(watts, "W");
}

}  // namespace cim
