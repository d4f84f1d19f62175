// Streaming statistics used by the telemetry layers (NoC, runtime, DPE).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace cim {

// Welford online mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void Reset() { *this = RunningStat(); }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const {
    return count_ > 0 ? min_ : 0.0;
  }
  [[nodiscard]] double max() const {
    return count_ > 0 ? max_ : 0.0;
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Shared accounting record threaded through simulated operations: every
// component adds the latency and energy it contributes. This is the single
// currency in which CPUs, GPUs and CIM fabrics are compared.
struct CostReport {
  double latency_ns = 0.0;
  double energy_pj = 0.0;
  double bytes_moved = 0.0;  // data crossing a chip/package boundary
  std::uint64_t operations = 0;

  CostReport& operator+=(const CostReport& other) {
    latency_ns += other.latency_ns;
    energy_pj += other.energy_pj;
    bytes_moved += other.bytes_moved;
    operations += other.operations;
    return *this;
  }
  friend CostReport operator+(CostReport a, const CostReport& b) {
    a += b;
    return a;
  }
  // The cost accrued between two snapshots of one running total:
  // `after - before`, field by field.
  friend CostReport operator-(const CostReport& after,
                              const CostReport& before) {
    CostReport delta;
    delta.latency_ns = after.latency_ns - before.latency_ns;
    delta.energy_pj = after.energy_pj - before.energy_pj;
    delta.bytes_moved = after.bytes_moved - before.bytes_moved;
    delta.operations = after.operations - before.operations;
    return delta;
  }
};

}  // namespace cim
