// Boundary values for the parameter fuzz suites (ParamsFuzzTest and its
// siblings): a field's type edges plus each of its bounds with the bound's
// neighbours. A real field takes 0, -1, the most negative and the largest
// finite values, NaN and +/-inf, and each bound +/-1 and +/-1 ulp; an
// integer field takes 0, -1 and its type's min and max, and each bound
// +/-1.
#pragma once

#include <cmath>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cim::fuzz {

template <typename T>
[[nodiscard]] std::vector<T> BoundaryValues(std::initializer_list<T> bounds) {
  std::vector<T> values;
  if constexpr (std::is_floating_point_v<T>) {
    constexpr T kInf = std::numeric_limits<T>::infinity();
    values = {0.0, -1.0, std::numeric_limits<T>::lowest(),
              std::numeric_limits<T>::max(),
              std::numeric_limits<T>::quiet_NaN(), kInf, -kInf};
    for (const T b : bounds) {
      values.insert(values.end(), {b, std::nextafter(b, -kInf),
                                   std::nextafter(b, kInf), b - 1, b + 1});
    }
  } else {
    values = {T{0}, static_cast<T>(-1), std::numeric_limits<T>::min(),
              std::numeric_limits<T>::max()};
    for (const T b : bounds) {
      values.insert(values.end(), {b, static_cast<T>(b - 1),
                                   static_cast<T>(b + 1)});
    }
  }
  return values;
}

// One fuzz input: "<field>=<value>" and the edit that sets it.
template <typename Params>
struct FuzzValue {
  std::string label;
  std::function<void(Params&)> apply;
};

// The distinct boundary values of one field, each as an edit through `get`
// (a Params& -> T& accessor).
template <typename Params, typename T, typename Get>
[[nodiscard]] std::vector<FuzzValue<Params>> FieldValues(
    const char* name, Get get, std::initializer_list<T> bounds) {
  std::vector<FuzzValue<Params>> field;
  std::set<std::string> seen;
  for (const T v : BoundaryValues<T>(bounds)) {
    std::ostringstream label;
    label << name << "=" << std::setprecision(17) << +v;
    if (!seen.insert(label.str()).second) continue;
    field.push_back({label.str(), [get, v](Params& p) { get(p) = v; }});
  }
  return field;
}

}  // namespace cim::fuzz

// FieldValues for the field `path` of a Params object, e.g.
// CIM_FIELD_VALUES(DpeParams, array.rows, 1, 4096).
#define CIM_FIELD_VALUES(Params, path, ...)                              \
  ::cim::fuzz::FieldValues<Params, std::remove_reference_t<decltype(     \
                                       std::declval<Params&>().path)>>(  \
      #path, [](Params& p) -> auto& { return p.path; }, {__VA_ARGS__})
