#include "crossbar/crossbar.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace cim::crossbar {

Status CrossbarParams::Validate() const {
  if (rows == 0 || cols == 0) {
    return InvalidArgument("crossbar dimensions must be non-zero");
  }
  if (rows > 4096 || cols > 4096) {
    return InvalidArgument("crossbar dimensions above 4096 are not modelled");
  }
  if (columns_per_adc == 0) {
    return InvalidArgument("columns_per_adc must be non-zero");
  }
  if (ir_drop_alpha < 0.0 || ir_drop_alpha >= 1.0) {
    return InvalidArgument("ir_drop_alpha must be in [0, 1)");
  }
  return cell.Validate();
}

Status PrepareDrive(const DacParams& dac,
                    std::span<const std::uint64_t> codes, DrivePattern* out) {
  CIM_CHECK(out != nullptr);
  const std::uint64_t max_code = (std::uint64_t{1} << dac.bits) - 1;
  for (std::uint64_t code : codes) {
    CIM_REQUIRE(code <= max_code, OutOfRange("DAC code exceeds dac.bits"));
  }
  out->voltages.resize(codes.size());
  // Branch-free list build: every index is written, and only a driven
  // line's advances the count — bit-serial drive bits are coin flips, so a
  // data-dependent branch here would mispredict on half the lines.
  out->lines.resize(codes.size());
  std::size_t driven = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const double v = dac.LevelVoltage(codes[i]);
    out->voltages[i] = v;
    out->lines[driven] = i;
    driven += v != 0.0 ? 1 : 0;
  }
  out->lines.resize(driven);
  return Status::Ok();
}

Expected<Crossbar> Crossbar::Create(const CrossbarParams& params, Rng rng) {
  if (Status status = params.Validate(); !status.ok()) return status;
  return Crossbar(params, rng);
}

Crossbar::Crossbar(const CrossbarParams& params, Rng rng)
    : params_(params),
      noise_(params.cell.read_noise_sigma, params.kernel),
      rng_(rng) {
  cells_.reserve(params_.rows * params_.cols);
  for (std::size_t i = 0; i < params_.rows * params_.cols; ++i) {
    cells_.emplace_back(params_.cell);
  }
  gain_.resize(params_.rows * params_.cols);
  gain_transposed_.resize(params_.rows * params_.cols);
  row_read_energy_pj_.resize(params_.rows);
  col_read_energy_pj_.resize(params_.cols);
  RefreshMirror();
}

double Crossbar::EffectiveConductance(const device::MemristorCell& cell) const {
  double g = cell.true_conductance();
  if (cell.fault() == device::CellFault::kStuckOn) g = params_.cell.g_on_siemens;
  if (cell.fault() == device::CellFault::kStuckOff) {
    g = params_.cell.g_off_siemens;
  }
  return g;
}

void Crossbar::RefreshMirror() {
  const std::size_t rows = params_.rows;
  const std::size_t cols = params_.cols;
  const double energy_per_gon =
      params_.cell.read_energy.pj / params_.cell.g_on_siemens;
  std::fill(col_read_energy_pj_.begin(), col_read_energy_pj_.end(), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double row_energy = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const device::MemristorCell& cell = cells_[r * cols + c];
      const double g = EffectiveConductance(cell);
      gain_[r * cols + c] = g;
      gain_transposed_[c * rows + r] = g;
      // Read energy is ohmic off the stored (pre-fault-override)
      // conductance — mirrors MemristorCell::Read.
      const double e = cell.true_conductance() * energy_per_gon;
      row_energy += e;
      col_read_energy_pj_[c] += e;
    }
    row_read_energy_pj_[r] = row_energy;
  }
}

void Crossbar::RefreshMirrorCell(std::size_t row, std::size_t col) {
  const std::size_t rows = params_.rows;
  const std::size_t cols = params_.cols;
  const double energy_per_gon =
      params_.cell.read_energy.pj / params_.cell.g_on_siemens;
  const double g = EffectiveConductance(cells_[row * cols + col]);
  gain_[row * cols + col] = g;
  gain_transposed_[col * rows + row] = g;
  // Re-sum the touched row/column energies from scratch (instead of a
  // cheaper add-the-delta) so the mirror depends only on the current cell
  // state, never on the mutation history — FP deltas would drift.
  double row_energy = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    row_energy += cells_[row * cols + c].true_conductance() * energy_per_gon;
  }
  row_read_energy_pj_[row] = row_energy;
  double col_energy = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    col_energy += cells_[r * cols + col].true_conductance() * energy_per_gon;
  }
  col_read_energy_pj_[col] = col_energy;
}

Expected<CostReport> Crossbar::ProgramLevels(
    std::span<const std::uint64_t> levels) {
  CIM_REQUIRE(levels.size() == params_.rows * params_.cols,
              InvalidArgument("level matrix size mismatch"));
  const std::uint64_t max_level = params_.cell.levels() - 1;
  for (std::uint64_t level : levels) {
    CIM_REQUIRE(level <= max_level,
                OutOfRange("cell level exceeds cell_bits"));
  }

  CostReport total;
  for (std::size_t r = 0; r < params_.rows; ++r) {
    double row_latency = 0.0;
    for (std::size_t c = 0; c < params_.cols; ++c) {
      const device::ProgramResult pr =
          cells_[r * params_.cols + c].Program(params_.cell,
                                               levels[r * params_.cols + c],
                                               rng_);
      ++write_attempts_;
      if (!pr.verified) ++write_verify_failures_;
      total.energy_pj += pr.energy.pj;
      // A row's cells program in parallel (write verify is per row).
      row_latency = std::max(row_latency, pr.latency.ns);
      ++total.operations;
    }
    total.latency_ns += row_latency;  // rows are written serially
  }
  // The level matrix itself had to reach the array from outside.
  total.bytes_moved += static_cast<double>(levels.size()) *
                       static_cast<double>(params_.cell.cell_bits) / 8.0;
  RefreshMirror();
  return total;
}

Expected<CostReport> Crossbar::ProgramCell(std::size_t row, std::size_t col,
                                           std::uint64_t level) {
  CIM_REQUIRE(row < params_.rows && col < params_.cols,
              OutOfRange("cell coordinate"));
  CIM_REQUIRE(level <= params_.cell.levels() - 1,
              OutOfRange("cell level exceeds cell_bits"));
  const device::ProgramResult pr =
      cells_[row * params_.cols + col].Program(params_.cell, level, rng_);
  ++write_attempts_;
  if (!pr.verified) ++write_verify_failures_;
  RefreshMirrorCell(row, col);
  CostReport cost;
  cost.latency_ns = pr.latency.ns;
  cost.energy_pj = pr.energy.pj;
  cost.operations = 1;
  cost.bytes_moved = params_.cell.cell_bits / 8.0;
  return cost;
}

double Crossbar::FullScaleCurrent(CycleDirection dir) const {
  return static_cast<double>(DrivenLines(dir)) * params_.dac.v_read *
         params_.cell.g_on_siemens;
}

std::vector<double> Crossbar::IdealColumnCurrents(
    std::span<const std::uint64_t> row_codes) const {
  CIM_CHECK(row_codes.size() == params_.rows);
  // Deliberately computed off cells_ (the source of truth), not the SoA
  // mirror: the mirror-invalidation tests compare cycles against this.
  std::vector<double> currents(params_.cols, 0.0);
  for (std::size_t r = 0; r < params_.rows; ++r) {
    const double v = params_.dac.LevelVoltage(row_codes[r]);
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < params_.cols; ++c) {
      currents[c] += v * EffectiveConductance(cells_[r * params_.cols + c]);
    }
  }
  return currents;
}

void Crossbar::AccumulateReference(const DrivePattern& drive,
                                   CycleDirection dir, Rng& rng,
                                   std::span<double> currents,
                                   double& energy_pj) {
  // Driven line l starts at cells_[l * line_stride] and its cells sit
  // cell_stride apart: a row of adjacent cells forward, a column of
  // cols-strided cells transposed.
  const bool forward = dir == CycleDirection::kForward;
  const std::size_t line_stride = forward ? params_.cols : 1;
  const std::size_t cell_stride = forward ? 1 : params_.cols;
  const std::size_t line_cells = SensedLines(dir);
  for (std::size_t l = 0; l < DrivenLines(dir); ++l) {
    const double v = drive.voltages[l];
    if (v == 0.0) continue;
    const device::MemristorCell* line = cells_.data() + l * line_stride;
    for (std::size_t k = 0; k < line_cells; ++k) {
      const device::ReadResult rr = line[k * cell_stride].Read(params_.cell,
                                                               rng);
      currents[k] += v * rr.conductance_siemens;
      energy_pj += rr.energy.pj;
    }
    energy_pj += params_.dac.drive_energy.pj;
  }
}

void Crossbar::AccumulateFast(const DrivePattern& drive, CycleDirection dir,
                              std::size_t sensed, Rng& rng,
                              std::span<double> currents, double& energy_pj) {
  // The mirror plane whose lines are contiguous in this direction (the
  // column-major copy keeps a transposed line unit stride too) and its
  // per-line read-energy sums.
  const bool forward = dir == CycleDirection::kForward;
  const double* gain = forward ? gain_.data() : gain_transposed_.data();
  const double* line_energy_pj = forward ? row_read_energy_pj_.data()
                                         : col_read_energy_pj_.data();
  const std::size_t line_cells = SensedLines(dir);
  const double sigma = params_.cell.read_noise_sigma;
  const double ceiling = params_.cell.g_on_siemens * 1.5;
  // Per driven line (drive.lines, ascending — exactly the lines the
  // reference kernel's `v == 0.0` test lets through, in its order): draw
  // the sensed prefix's noise factors into a scratch buffer — under the
  // bit-exact policies in the same order the reference kernel consumes the
  // stream (advancing past every cell of a driven line, sensed or not),
  // under kFastNoise as one tile window per line — then run a dense
  // accumulate over the contiguous conductance mirror for cells
  // [0, sensed) only: the ADC never converts the rest, so their currents
  // are never read. The two loops split the sampling from the
  // arithmetic, so the second loop auto-vectorizes; each sensed line owns
  // an independent accumulator chain, so vectorizing across them cannot
  // reorder any FP sum.
  thread_local std::vector<double> factors;
  if (sigma > 0.0 && factors.size() < sensed) factors.resize(sensed);
  for (const std::size_t l : drive.lines) {
    const double v = drive.voltages[l];
    // __restrict: the mirror, the scratch buffer and the accumulator never
    // alias, and saying so is what lets the dense loops below vectorize
    // without runtime overlap checks.
    const double* __restrict g_line = gain + l * line_cells;
    double* __restrict cur = currents.data();
    if (sigma > 0.0) {
      double* __restrict f = factors.data();
      noise_.FillFactors(rng, f, sensed, line_cells);
      for (std::size_t k = 0; k < sensed; ++k) {
        const double g = std::clamp(g_line[k] * f[k], 0.0, ceiling);
        cur[k] += v * g;
      }
    } else {
      for (std::size_t k = 0; k < sensed; ++k) {
        const double g = std::clamp(g_line[k], 0.0, ceiling);
        cur[k] += v * g;
      }
    }
    // Every cell on a driven line conducts, sensed or not.
    energy_pj += line_energy_pj[l];
    energy_pj += params_.dac.drive_energy.pj;
  }
}

Expected<AnalogCycleResult> Crossbar::Cycle(
    std::span<const std::uint64_t> row_codes, std::size_t active_cols,
    Rng* noise_rng) {
  return CycleCodes(row_codes, CycleDirection::kForward, active_cols,
                    noise_rng);
}

Expected<AnalogCycleResult> Crossbar::CycleTranspose(
    std::span<const std::uint64_t> col_codes, std::size_t active_rows,
    Rng* noise_rng) {
  return CycleCodes(col_codes, CycleDirection::kTranspose, active_rows,
                    noise_rng);
}

Expected<AnalogCycleResult> Crossbar::CycleCodes(
    std::span<const std::uint64_t> codes, CycleDirection dir,
    std::size_t sensed, Rng* noise_rng) {
  // Shape errors are reported before code errors. `sensed` 0 means "sense
  // every line"; more lines than exist is a caller bug, not a clamp.
  CIM_REQUIRE(codes.size() == DrivenLines(dir),
              InvalidArgument("drive vector size mismatch"));
  CIM_REQUIRE(sensed <= SensedLines(dir),
              InvalidArgument("sensed line count exceeds the array"));
  thread_local DrivePattern drive;
  CIM_RETURN_IF_ERROR(PrepareDrive(params_.dac, codes, &drive));
  AnalogCycleResult result;
  result.column_codes.assign(SensedLines(dir), 0);
  auto cost = CycleDriven(drive, dir, sensed, result.column_codes, noise_rng);
  if (!cost.ok()) return cost.status();
  result.cost = *cost;
  return result;
}

Expected<CostReport> Crossbar::CycleDriven(const DrivePattern& drive,
                                           CycleDirection dir,
                                           std::size_t sensed,
                                           std::span<std::uint64_t> codes,
                                           Rng* noise_rng) {
  Rng& rng = noise_rng != nullptr ? *noise_rng : rng_;
  const std::size_t driven_lines = DrivenLines(dir);
  const std::size_t sensed_lines = SensedLines(dir);
  CIM_REQUIRE(drive.voltages.size() == driven_lines,
              InvalidArgument("drive pattern size mismatch"));
  CIM_REQUIRE(sensed <= sensed_lines,
              InvalidArgument("sensed line count exceeds the array"));
  if (sensed == 0) sensed = sensed_lines;
  CIM_REQUIRE(codes.size() >= sensed,
              InvalidArgument("code buffer smaller than the sensed lines"));

  // Accumulate noisy sensed-line currents. Every cell on a driven line
  // draws (conductance-proportional) read energy and read noise; only gated
  // lines get sensed, so the fast kernel evaluates only those, and only
  // that prefix of the scratch is zeroed (the reference kernel accumulates
  // every sensed line). The scratch is per thread, so concurrent cycles
  // (each with its own Rng) share no state, crossbar or otherwise.
  const bool reference = params_.kernel == device::KernelPolicy::kReference;
  thread_local std::vector<double> currents;
  if (currents.size() < sensed_lines) currents.resize(sensed_lines);
  std::fill_n(currents.begin(), reference ? sensed_lines : sensed, 0.0);
  CostReport cost;
  double energy_pj = 0.0;
  if (reference) {
    AccumulateReference(drive, dir, rng,
                        std::span<double>(currents).first(sensed_lines),
                        energy_pj);
  } else {
    AccumulateFast(drive, dir, sensed, rng,
                   std::span<double>(currents).first(sensed), energy_pj);
  }
  cost.energy_pj = energy_pj;
  const std::size_t active = drive.active();

  // First-order IR drop: attenuate with the fraction of simultaneously
  // driven lines.
  const double attenuation =
      1.0 - params_.ir_drop_alpha * static_cast<double>(active) /
                static_cast<double>(driven_lines);
  const double full_scale = FullScaleCurrent(dir);
  for (std::size_t k = 0; k < sensed; ++k) {
    codes[k] = params_.adc.Encode(currents[k] * attenuation, full_scale);
    cost.energy_pj += params_.adc.conversion_energy().pj;
  }

  // Latency: one DAC settle + cell read pulse happens for all driven lines
  // in parallel; ADC conversions serialize within each ADC group. Number of
  // ADCs = ceil(lines / columns_per_adc); each converts its share serially
  // while all ADCs run in parallel, so the critical path is the share of
  // one ADC.
  const double serial_conversions =
      std::min(static_cast<double>(params_.columns_per_adc),
               static_cast<double>(sensed));
  cost.latency_ns = params_.dac.settle_latency.ns +
                    params_.cell.read_latency.ns +
                    serial_conversions * params_.adc.conversion_latency().ns;
  cost.bytes_moved = 0.0;  // nothing crossed a package boundary
  cost.operations =
      static_cast<std::uint64_t>(active) * sensed * 2;  // MAC = 2 ops
  return cost;
}

void Crossbar::Age(TimeNs elapsed) {
  for (auto& cell : cells_) cell.Age(params_.cell, elapsed);
  RefreshMirror();
}

void Crossbar::InjectCellFault(std::size_t row, std::size_t col,
                               device::CellFault fault) {
  CIM_CHECK(row < params_.rows && col < params_.cols);
  cells_[row * params_.cols + col].InjectFault(fault);
  RefreshMirrorCell(row, col);
}

std::size_t Crossbar::CountFaultedCells() const {
  std::size_t n = 0;
  for (const auto& cell : cells_) {
    if (cell.fault() != device::CellFault::kNone) ++n;
  }
  return n;
}

}  // namespace cim::crossbar
