#include "crossbar/mvm_engine.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace cim::crossbar {
namespace {

// Exact 2^e for the shift-and-add weights: every (bit, slice) exponent fits
// a shift, and the conversion to double is exact, so this is bit-identical
// to the std::pow(2.0, e) calls it replaced — without the libm call in the
// per-cycle merge loop.
double Pow2(int e) {
  CIM_DCHECK(e >= 0 && e < 63);
  return static_cast<double>(std::uint64_t{1} << e);
}

// Sign-magnitude split of a weight code over the differential pair: digit
// `slice` (base 2^cell_bits) of |code| sits on the plane matching the
// code's sign (0 = positive, 1 = negative); the other plane holds 0.
// Branch-free: a weight's sign is a coin flip, so a branch on it would
// mispredict on half the cells of a programming pass.
std::uint64_t PlaneDigit(std::int64_t code, int plane, int slice,
                         int cell_bits) {
  const auto magnitude = static_cast<std::uint64_t>(code >= 0 ? code : -code);
  const std::uint64_t digit =
      (magnitude >> (slice * cell_bits)) & ((1ULL << cell_bits) - 1);
  const bool on_plane = (code < 0) == (plane == 1);
  return digit & (0 - static_cast<std::uint64_t>(on_plane));
}

// ABFT guard threshold multiplier over the analytic fault-free residual
// envelope (itself ~3 sigma of the measured noise-only residual). Larger =
// fewer false alarms, smaller = finer faults detected. 1.5 keeps ~2x
// headroom over the observed fault-free maximum while catching multi-cell
// stuck clusters (~24 cells on 64-row tiles, ~48 on 128x128).
constexpr double kGuardMargin = 1.5;

// Digit sums of one input bit's cycles, by ADC code. Within a bit every
// (slice, plane) array shares the driven-line count, the IR-drop
// attenuation and the full scale, so a sensed line's digit sum is a pure
// function of its code: each distinct code is decoded once per bit, not
// once per array and line. An entry is valid only while its epoch is the
// table's, and the epoch advances with every bit, so a new bit (or another
// engine on this thread) starts from an empty table without clearing it.
// Per thread, so a Compute on an external stream mutates no engine state.
struct DigitTable {
  struct Entry {
    std::uint64_t epoch = 0;
    double digit_sum = 0.0;
  };
  std::vector<Entry> entries;
  std::uint64_t epoch = 0;
};

// This thread's table, sized for `adc_bits` codes and emptied for a new
// bit.
DigitTable& DigitTableForBit(int adc_bits) {
  thread_local DigitTable table;
  const std::size_t codes = std::size_t{1} << adc_bits;
  if (table.entries.size() != codes) table.entries.assign(codes, {});
  ++table.epoch;
  return table;
}

}  // namespace

Status MvmEngineParams::Validate() const {
  if (weight_bits < 2 || weight_bits > 16) {
    return InvalidArgument("weight_bits must be in [2, 16]");
  }
  if (input_bits < 1 || input_bits > 16) {
    return InvalidArgument("input_bits must be in [1, 16]");
  }
  // An infinite range quantizes every code to 0 and makes OutputScale
  // (the product of the ranges' steps) infinite, so every output reads NaN.
  if (!AllFinite({weight_range, input_range, weight_range * input_range})) {
    return InvalidArgument("ranges and their product must be finite");
  }
  if (weight_range <= 0.0 || input_range <= 0.0) {
    return InvalidArgument("ranges must be positive");
  }
  if (!AllFinite({shift_add_energy.pj, shift_add_latency.ns}) ||
      shift_add_energy.pj < 0.0 || shift_add_latency.ns < 0.0 ||
      shift_add_energy.pj > kMaxEventEnergyPj ||
      shift_add_latency.ns > kMaxEventLatencyNs) {
    return InvalidArgument("shift-add costs must be in [0, 1 J] and [0, 1 s]");
  }
  return array.Validate();
}

Expected<MvmEngine> MvmEngine::Create(const MvmEngineParams& params,
                                      std::size_t in_dim, std::size_t out_dim,
                                      Rng rng) {
  if (Status status = params.Validate(); !status.ok()) return status;
  if (in_dim == 0 || in_dim > params.array.rows) {
    return InvalidArgument("in_dim must be in [1, array.rows]");
  }
  if (out_dim == 0 || out_dim > params.array.cols) {
    return InvalidArgument("out_dim must be in [1, array.cols]");
  }
  if (params.guard_column && out_dim >= params.array.cols) {
    return InvalidArgument("guard column needs one spare physical column: "
                           "out_dim must be < array.cols");
  }
  MvmEngine engine(params, in_dim, out_dim);
  engine.arrays_.reserve(static_cast<std::size_t>(2 * params.slices()));
  for (int a = 0; a < 2 * params.slices(); ++a) {
    auto xbar = Crossbar::Create(params.array, rng.Fork());
    if (!xbar.ok()) return xbar.status();
    engine.arrays_.push_back(std::move(xbar.value()));
  }
  engine.InitGuardSpread();
  return engine;
}

MvmEngine::MvmEngine(const MvmEngineParams& params, std::size_t in_dim,
                     std::size_t out_dim)
    : params_(params), in_dim_(in_dim), out_dim_(out_dim) {}

std::int64_t MvmEngine::QuantizeWeight(double w) const {
  return SymmetricQuantizer{params_.weight_bits, params_.weight_range}.Encode(
      w);
}

std::uint64_t MvmEngine::QuantizeInput(double x) const {
  const UnsignedQuantizer q{params_.input_bits, params_.input_range};
  // The code must fit the input_bits bits the DAC streams.
  return std::min<std::uint64_t>(q.Encode(x), q.levels() - 1);
}

Expected<CostReport> MvmEngine::ProgramWeights(
    std::span<const double> weights) {
  if (weights.size() != in_dim_ * out_dim_) {
    return InvalidArgument("weight matrix size mismatch");
  }
  weight_codes_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weight_codes_[i] = QuantizeWeight(weights[i]);
  }

  const auto max_code =
      static_cast<std::int64_t>((1LL << (params_.weight_bits - 1)) - 1);
  if (params_.guard_column) {
    // Guard code of row r = round(sum_c code[r][c] / guard_scale_), with
    // one integer downscale chosen so every row sum fits a weight code.
    std::vector<std::int64_t> row_sums(in_dim_, 0);
    std::int64_t max_abs_sum = 0;
    for (std::size_t r = 0; r < in_dim_; ++r) {
      std::int64_t sum = 0;
      for (std::size_t c = 0; c < out_dim_; ++c) {
        sum += weight_codes_[r * out_dim_ + c];
      }
      row_sums[r] = sum;
      max_abs_sum = std::max(max_abs_sum, sum >= 0 ? sum : -sum);
    }
    guard_scale_ = std::max<std::int64_t>(
        1, (max_abs_sum + max_code - 1) / max_code);
    guard_codes_.resize(in_dim_);
    for (std::size_t r = 0; r < in_dim_; ++r) {
      const double scaled = static_cast<double>(row_sums[r]) /
                            static_cast<double>(guard_scale_);
      guard_codes_[r] = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::llround(scaled)), -max_code,
          max_code);
    }
  }

  const int cell_bits = params_.array.cell.cell_bits;
  const std::size_t cols = params_.array.cols;

  // One level matrix serves every (slice, plane) array: each pass rewrites
  // the same logical cells (and guard column), and the cells past them stay
  // at level 0.
  std::vector<std::uint64_t> levels(params_.array.rows * cols, 0);
  CostReport total;
  for (int s = 0; s < params_.slices(); ++s) {
    CostReport plane_cost[2];
    for (int plane = 0; plane < 2; ++plane) {
      for (std::size_t r = 0; r < in_dim_; ++r) {
        for (std::size_t c = 0; c < out_dim_; ++c) {
          levels[r * cols + c] = PlaneDigit(weight_codes_[r * out_dim_ + c],
                                            plane, s, cell_bits);
        }
        if (params_.guard_column) {
          // The guard lives in the first physical column past the logical
          // matrix and programs exactly like a weight.
          levels[r * cols + out_dim_] =
              PlaneDigit(guard_codes_[r], plane, s, cell_bits);
        }
      }
      auto cost = ArrayAt(s, plane).ProgramLevels(levels);
      if (!cost.ok()) return cost.status();
      plane_cost[plane] = *cost;
    }
    // The two planes of a slice program in parallel in hardware; slices
    // share the write drivers and go one after another.
    const CostReport& pos = plane_cost[0];
    const CostReport& neg = plane_cost[1];
    total.energy_pj += pos.energy_pj + neg.energy_pj;
    total.latency_ns += std::max(pos.latency_ns, neg.latency_ns);
    total.bytes_moved += pos.bytes_moved + neg.bytes_moved;
    total.operations += pos.operations + neg.operations;
  }
  programmed_ = true;
  return total;
}

Expected<CostReport> MvmEngine::UpdateWeights(
    std::span<const double> weights) {
  if (!programmed_) {
    return FailedPrecondition("ProgramWeights must run before UpdateWeights");
  }
  if (params_.guard_column) {
    // Incremental updates would silently invalidate the programmed row
    // sums; the guard is an inference-serving feature. Reprogram instead.
    return FailedPrecondition(
        "UpdateWeights is unsupported with guard_column; use ProgramWeights");
  }
  if (weights.size() != in_dim_ * out_dim_) {
    return InvalidArgument("weight matrix size mismatch");
  }
  const int cell_bits = params_.array.cell.cell_bits;

  CostReport total;
  // Per array: serialized cell rewrites; arrays update in parallel, so the
  // update latency is the worst array's sum.
  std::vector<double> per_array_latency(arrays_.size(), 0.0);

  for (std::size_t r = 0; r < in_dim_; ++r) {
    for (std::size_t c = 0; c < out_dim_; ++c) {
      const std::int64_t new_code = QuantizeWeight(weights[r * out_dim_ + c]);
      const std::int64_t old_code = weight_codes_[r * out_dim_ + c];
      if (new_code == old_code) continue;
      weight_codes_[r * out_dim_ + c] = new_code;
      for (int s = 0; s < params_.slices(); ++s) {
        for (int plane = 0; plane < 2; ++plane) {
          const std::uint64_t digit =
              PlaneDigit(new_code, plane, s, cell_bits);
          if (digit == PlaneDigit(old_code, plane, s, cell_bits)) continue;
          auto cost = ArrayAt(s, plane).ProgramCell(r, c, digit);
          if (!cost.ok()) return cost.status();
          total.energy_pj += cost->energy_pj;
          total.operations += 1;
          per_array_latency[static_cast<std::size_t>(2 * s + plane)] +=
              cost->latency_ns;
        }
      }
    }
  }
  for (double latency : per_array_latency) {
    total.latency_ns = std::max(total.latency_ns, latency);
  }
  return total;
}

double MvmEngine::OutputScale() const {
  const auto max_w_code =
      static_cast<double>((1LL << (params_.weight_bits - 1)) - 1);
  const auto max_x_code =
      static_cast<double>((1ULL << params_.input_bits) - 1);
  return (params_.weight_range / max_w_code) *
         (params_.input_range / max_x_code);
}

Status MvmEngine::BitSweep(CycleDirection dir,
                           std::span<const std::uint64_t> codes, double sign,
                           Rng* noise_rng, std::span<double> accum,
                           CostReport& cost) {
  const CrossbarParams& array = params_.array;
  const std::size_t lines =
      dir == CycleDirection::kForward ? array.rows : array.cols;
  const double v_read = array.dac.v_read;
  const double g_step = array.cell.LevelStep();
  const int cell_bits = array.cell.cell_bits;
  const double full_scale = arrays_.front().FullScaleCurrent(dir);
  // One code buffer for every cycle of the sweep.
  std::vector<std::uint64_t> sensed_codes(accum.size(), 0);
  // The accumulators and the energy sum live apart from `cost` (which the
  // compiler must assume may alias accum) for the whole sweep.
  double* __restrict acc = accum.data();
  double energy_pj = cost.energy_pj;

  // Fused bit-sweep: one drive pattern per input bit, loaded from the
  // engine's logical lines only (the physical lines past codes.size() stay
  // undriven), then shared by every (slice, plane) array's cycle.
  DrivePattern drive;
  drive.bits.assign(lines, 0);
  for (int b = 0; b < params_.input_bits; ++b) {
    LoadDriveBit(codes, b, &drive);
    // The digital periphery calibrates the array's IR-drop attenuation out:
    // it depends only on the known number of driven lines.
    const std::size_t active = drive.active();
    const double attenuation =
        1.0 - array.ir_drop_alpha * static_cast<double>(active) /
                  static_cast<double>(lines);
    const double bit_weight = Pow2(b);
    DigitTable& digits = DigitTableForBit(array.adc.bits);
    DigitTable::Entry* const table = digits.entries.data();
    const std::uint64_t epoch = digits.epoch;

    double cycle_latency = 0.0;
    for (int s = 0; s < params_.slices(); ++s) {
      const double slice_weight = bit_weight * Pow2(s * cell_bits);
      for (int plane = 0; plane < 2; ++plane) {
        auto cycle = ArrayAt(s, plane).CycleDriven(drive, dir, accum.size(),
                                                   sensed_codes, noise_rng);
        if (!cycle.ok()) return cycle.status();
        // All (slice, plane) arrays fire in parallel within the bit cycle.
        cycle_latency = std::max(cycle_latency, cycle->latency_ns);
        energy_pj += cycle->energy_pj;
        cost.operations += cycle->operations;
        const double weight = (plane == 0 ? 1.0 : -1.0) * sign * slice_weight;
        for (std::size_t k = 0; k < accum.size(); ++k) {
          DigitTable::Entry& entry = table[sensed_codes[k]];
          if (entry.epoch != epoch) {
            const double sensed =
                array.adc.Decode(sensed_codes[k], full_scale);
            const double corrected = sensed / attenuation -
                                     static_cast<double>(active) * v_read *
                                         array.cell.g_off_siemens;
            // A negative corrected sum is a zero digit sum.
            entry.digit_sum = static_cast<double>(
                RoundHalfAway(corrected / (v_read * g_step)));
            entry.epoch = epoch;
          }
          acc[k] += weight * entry.digit_sum;
          energy_pj += params_.shift_add_energy.pj;
        }
      }
    }
    cost.latency_ns += cycle_latency + params_.shift_add_latency.ns;
  }
  cost.energy_pj = energy_pj;
  return Status::Ok();
}

Expected<MvmResult> MvmEngine::Compute(std::span<const double> x,
                                       Rng* noise_rng) {
  if (!programmed_) {
    return FailedPrecondition("ProgramWeights must run before Compute");
  }
  if (x.size() != in_dim_) return InvalidArgument("input size mismatch");

  std::vector<std::uint64_t> codes(in_dim_);
  for (std::size_t i = 0; i < in_dim_; ++i) codes[i] = QuantizeInput(x[i]);

  // The guard column, when enabled, is sensed as accum[out_dim_]. Sensing
  // it costs one extra ADC conversion per cycle but leaves the noise stream
  // unchanged: Crossbar::CycleDriven advances the read-noise stream for
  // every cell of a driven row and evaluates only the sensed prefix, so the
  // stream does not depend on how many columns are digitized and guard-on
  // and guard-off runs stay bit-identical on the logical outputs.
  MvmResult result;
  std::vector<double> accum(params_.guard_column ? out_dim_ + 1 : out_dim_,
                            0.0);
  CIM_RETURN_IF_ERROR(BitSweep(CycleDirection::kForward, codes, 1.0,
                               noise_rng, accum, result.cost));

  const double scale = OutputScale();
  result.y.resize(out_dim_);
  for (std::size_t c = 0; c < out_dim_; ++c) result.y[c] = accum[c] * scale;

  if (params_.guard_column) {
    // ABFT check: guard holds row sums / guard_scale_, so in exact
    // arithmetic guard_scale_ * y_guard == sum_c y_c for any input.
    double y_sum = 0.0;
    for (std::size_t c = 0; c < out_dim_; ++c) y_sum += accum[c];
    double sum_x_codes = 0.0;
    for (std::uint64_t code : codes) {
      sum_x_codes += static_cast<double>(code);
    }
    result.guard_checked = true;
    result.guard_residual =
        std::abs(static_cast<double>(guard_scale_) * accum[out_dim_] -
                 y_sum) *
        scale;
    result.guard_threshold = GuardThreshold(sum_x_codes);
    result.guard_ok = result.guard_residual <= result.guard_threshold;
  }
  return result;
}

void MvmEngine::InitGuardSpread() {
  // Fault-free residual spread in digit units, per sensed cycle:
  //   * half an ADC LSB (amplified by the attenuation correction) plus half
  //     a digit of rounding,
  //   * lognormal read noise across <= in_dim cells at worst-case g_on,
  //     summing in quadrature down the column.
  const CrossbarParams& array = params_.array;
  const double v_read = array.dac.v_read;
  const double g_step = array.cell.LevelStep();
  const double full_scale = arrays_.front().FullScaleCurrent();
  const double adc_lsb_digits =
      full_scale / static_cast<double>((1ULL << array.adc.bits) - 1) /
      (1.0 - array.ir_drop_alpha) / (v_read * g_step);
  guard_rho_ = 0.5 * (adc_lsb_digits + 1.0) +
               array.cell.read_noise_sigma *
                   (array.cell.g_on_siemens / g_step) *
                   std::sqrt(static_cast<double>(in_dim_));

  // Each cycle's digit error is weighted 2^(bit + slice*cell_bits) by the
  // shift-and-add; independent cycles add in quadrature (two planes).
  const int cell_bits = array.cell.cell_bits;
  double weight_sq = 0.0;
  for (int b = 0; b < params_.input_bits; ++b) {
    for (int s = 0; s < params_.slices(); ++s) {
      weight_sq += 2.0 * std::pow(4.0, b + s * cell_bits);
    }
  }
  guard_w_rms_ = std::sqrt(weight_sq);
}

double MvmEngine::GuardThreshold(double sum_x_codes) const {
  // The residual mixes out_dim unit-weight columns with one guard column
  // amplified by guard_scale_; the guard's own rounding (half a code per
  // row) couples through the input code mass.
  const double s = static_cast<double>(guard_scale_);
  const double column_mix =
      std::sqrt(static_cast<double>(out_dim_) + s * s);
  return kGuardMargin * OutputScale() *
         (guard_rho_ * column_mix * guard_w_rms_ + 0.5 * s * sum_x_codes);
}

Expected<MvmResult> MvmEngine::ComputeTranspose(std::span<const double> e,
                                                Rng* noise_rng) {
  if (!programmed_) {
    return FailedPrecondition("ProgramWeights must run before "
                              "ComputeTranspose");
  }
  if (e.size() != out_dim_) return InvalidArgument("error size mismatch");

  // Split the signed error into non-negative halves; each half runs a full
  // bit-serial transpose sweep, the negative one subtracting.
  std::vector<std::uint64_t> pos_codes(out_dim_), neg_codes(out_dim_);
  for (std::size_t i = 0; i < out_dim_; ++i) {
    pos_codes[i] = QuantizeInput(std::max(e[i], 0.0));
    neg_codes[i] = QuantizeInput(std::max(-e[i], 0.0));
  }

  MvmResult result;
  std::vector<double> accum(in_dim_, 0.0);
  CIM_RETURN_IF_ERROR(BitSweep(CycleDirection::kTranspose, pos_codes, 1.0,
                               noise_rng, accum, result.cost));
  CIM_RETURN_IF_ERROR(BitSweep(CycleDirection::kTranspose, neg_codes, -1.0,
                               noise_rng, accum, result.cost));

  const double scale = OutputScale();
  result.y.resize(in_dim_);
  for (std::size_t r = 0; r < in_dim_; ++r) result.y[r] = accum[r] * scale;
  return result;
}

Expected<std::vector<double>> MvmEngine::GoldenComputeTranspose(
    std::span<const double> e) const {
  if (!programmed_) {
    return FailedPrecondition("ProgramWeights must run before "
                              "GoldenComputeTranspose");
  }
  if (e.size() != out_dim_) return InvalidArgument("error size mismatch");
  const double scale = OutputScale();
  std::vector<double> g(in_dim_, 0.0);
  for (std::size_t c = 0; c < out_dim_; ++c) {
    const double pos = static_cast<double>(
        QuantizeInput(std::max(e[c], 0.0)));
    const double neg = static_cast<double>(
        QuantizeInput(std::max(-e[c], 0.0)));
    const double code = pos - neg;
    if (code == 0.0) continue;
    for (std::size_t r = 0; r < in_dim_; ++r) {
      g[r] += static_cast<double>(weight_codes_[r * out_dim_ + c]) * code;
    }
  }
  for (double& v : g) v *= scale;
  return g;
}

Expected<std::vector<double>> MvmEngine::GoldenCompute(
    std::span<const double> x) const {
  if (!programmed_) {
    return FailedPrecondition("ProgramWeights must run before GoldenCompute");
  }
  if (x.size() != in_dim_) return InvalidArgument("input size mismatch");
  const double scale = OutputScale();
  std::vector<double> y(out_dim_, 0.0);
  for (std::size_t r = 0; r < in_dim_; ++r) {
    const auto xcode = static_cast<double>(QuantizeInput(x[r]));
    if (xcode == 0.0) continue;
    for (std::size_t c = 0; c < out_dim_; ++c) {
      y[c] += static_cast<double>(weight_codes_[r * out_dim_ + c]) * xcode;
    }
  }
  for (double& v : y) v *= scale;
  return y;
}

double MvmEngine::AdcErrorBound() const {
  // Per (bit, slice, plane) cycle the ADC introduces at most half an LSB of
  // current error; digit rounding adds at most half a digit. Both convert
  // into digit-sum error, get scaled by 2^(slice*cell_bits + bit) and summed
  // over planes. Assumes read noise and faults are disabled.
  const CrossbarParams& array = params_.array;
  const double v_read = array.dac.v_read;
  const double g_step = array.cell.LevelStep();
  const double full_scale = arrays_.front().FullScaleCurrent();
  const double adc_lsb_current =
      full_scale / static_cast<double>((1ULL << array.adc.bits) - 1);
  // Worst-case attenuation correction amplifies the ADC error by at most
  // 1/(1-alpha).
  const double amplification = 1.0 / (1.0 - array.ir_drop_alpha);
  const double digit_error_per_cycle =
      0.5 * adc_lsb_current * amplification / (v_read * g_step) + 0.5;

  double weight_sum = 0.0;
  const int cell_bits = array.cell.cell_bits;
  for (int b = 0; b < params_.input_bits; ++b) {
    for (int s = 0; s < params_.slices(); ++s) {
      weight_sum += 2.0 * Pow2(b + s * cell_bits);  // two planes
    }
  }
  const double scale = OutputScale();
  return weight_sum * digit_error_per_cycle * scale;
}

void MvmEngine::InjectCellFault(int plane, std::size_t row, std::size_t col,
                                device::CellFault fault) {
  for (int s = 0; s < params_.slices(); ++s) {
    ArrayAt(s, plane).InjectCellFault(row, col, fault);
  }
}

EngineWriteStats MvmEngine::write_stats() const {
  EngineWriteStats stats;
  for (const auto& xbar : arrays_) {
    stats.attempts += xbar.write_attempts();
    stats.verify_failures += xbar.write_verify_failures();
  }
  return stats;
}

std::size_t MvmEngine::resident_bytes() const {
  std::size_t bytes = 0;
  for (const auto& xbar : arrays_) bytes += xbar.resident_bytes();
  return bytes;
}

void MvmEngine::Age(TimeNs elapsed) {
  for (auto& xbar : arrays_) xbar.Age(elapsed);
}

}  // namespace cim::crossbar
