#include "crossbar/crossbar.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"

namespace cim::crossbar {
namespace {

// Quiet-kernel register block: adds every driven line's terms to sensed
// lines [k0, k0 + W) of a pre-clamped mirror plane, keeping the W
// accumulators in registers across all driven lines. Each accumulator still
// adds the lines in drive.lines order, so no FP sum changes.
template <std::size_t W>
void AccumulateQuietBlock(const DrivePattern& drive, const double* gain,
                          std::size_t line_cells, std::size_t k0,
                          double* __restrict cur) {
  double acc[W];
  for (std::size_t j = 0; j < W; ++j) acc[j] = cur[k0 + j];
  for (const std::size_t l : drive.lines) {
    const double v = drive.voltages[l];
    const double* __restrict g = gain + l * line_cells + k0;
    for (std::size_t j = 0; j < W; ++j) acc[j] += v * g[j];
  }
  for (std::size_t j = 0; j < W; ++j) cur[k0 + j] = acc[j];
}

}  // namespace

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
  if (!AllFinite({ir_drop_alpha, adc.base_latency.ns, adc.base_energy.pj,
                  dac.settle_latency.ns, dac.drive_energy.pj, dac.v_read})) {
    return InvalidArgument("crossbar parameters must be finite");
  }
  if (ir_drop_alpha < 0.0 || ir_drop_alpha >= 1.0) {
    return InvalidArgument("ir_drop_alpha must be in [0, 1)");
  }
  // A 0-bit converter has no code range (Decode would divide by a max code
  // of 0) and 64 bits would shift a uint64_t by its full width; 16 bits is
  // past any crossbar periphery the models describe.
  if (adc.bits < 1 || adc.bits > 16) {
    return InvalidArgument("adc.bits must be in [1, 16]");
  }
  // The reference point divides the conversion latency and is subtracted
  // from bits in the resolution scale (INT_MIN would overflow there).
  if (adc.reference_bits < 1 || adc.reference_bits > 16) {
    return InvalidArgument("adc.reference_bits must be in [1, 16]");
  }
  if (dac.bits < 1 || dac.bits > 16) {
    return InvalidArgument("dac.bits must be in [1, 16]");
  }
  // A negative read voltage makes the ADC's full scale negative (Encode's
  // clamp range inverted); zero drives no current, so every MVM reads 0.
  if (dac.v_read <= 0.0) {
    return InvalidArgument("dac.v_read must be positive");
  }
  return cell.Validate();
}

Status PrepareDrive(const DacParams& dac,
                    std::span<const std::uint64_t> codes, DrivePattern* out) {
  CIM_CHECK(out != nullptr);
  CIM_REQUIRE(dac.bits >= 1 && dac.bits <= 16,
              InvalidArgument("dac.bits must be in [1, 16]"));
  const std::uint64_t max_code = (std::uint64_t{1} << dac.bits) - 1;
  for (std::uint64_t code : codes) {
    CIM_REQUIRE(code <= max_code, OutOfRange("DAC code exceeds dac.bits"));
  }
  // Every level's voltage, computed once per thread and DAC instead of one
  // division per line: the entries are LevelVoltage's own results, so the
  // lookup is bit-identical to it. The key compares v_read bitwise, so a
  // table is reused only for exactly the DAC that built it.
  struct LevelTable {
    int bits = 0;
    std::uint64_t v_read_bits = 0;
    std::vector<double> voltages;
  };
  thread_local LevelTable table;
  const auto v_read_bits = std::bit_cast<std::uint64_t>(dac.v_read);
  if (table.bits != dac.bits || table.v_read_bits != v_read_bits) {
    table.voltages.resize(max_code + 1);
    for (std::uint64_t code = 0; code <= max_code; ++code) {
      table.voltages[code] = dac.LevelVoltage(code);
    }
    table.bits = dac.bits;
    table.v_read_bits = v_read_bits;
  }
  out->voltages.resize(codes.size());
  // Branch-free list build: every index is written, and only a driven
  // line's advances the count — bit-serial drive bits are coin flips, so a
  // data-dependent branch here would mispredict on half the lines.
  out->lines.resize(codes.size());
  std::size_t driven = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const double v = table.voltages[codes[i]];
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

double Crossbar::MirrorConductance(const device::MemristorCell& cell) const {
  const double g = EffectiveConductance(cell);
  // A noisy read clamps g * factor, so it needs the raw g; a quiet read is
  // the clamped g itself, so a quiet array stores it pre-clamped.
  if (noise_.enabled()) return g;
  return std::clamp(g, 0.0, ReadCeiling());
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
      const double g = MirrorConductance(cell);
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
  const double g = MirrorConductance(cells_[row * cols + col]);
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
  // __restrict: the mirror, the scratch buffer and the accumulator never
  // alias, and saying so is what lets the dense loops below vectorize
  // without runtime overlap checks.
  double* __restrict cur = currents.data();
  // Every sensed line owns an independent accumulator chain that adds the
  // driven lines' terms in drive.lines order (ascending — exactly the lines
  // the reference kernel's `v == 0.0` test lets through, in its order), so
  // vectorizing across sensed lines or blocking them cannot reorder any FP
  // sum.
  if (noise_.enabled()) {
    // Per driven line: draw the sensed prefix's noise factors into a
    // scratch buffer — under kFastBitExact in the same order the reference
    // kernel consumes the stream (advancing past every cell of a driven
    // line, sensed or not), under kFastNoise as one tile window per line —
    // then run a dense accumulate over the contiguous conductance mirror
    // for cells [0, sensed) only: the ADC never converts the rest, so their
    // currents are never read. The two loops split the sampling from the
    // arithmetic, so the second loop auto-vectorizes.
    const double ceiling = ReadCeiling();
    thread_local std::vector<double> factors;
    if (factors.size() < sensed) factors.resize(sensed);
    double* __restrict f = factors.data();
    for (const std::size_t l : drive.lines) {
      const double v = drive.voltages[l];
      const double* __restrict g_line = gain + l * line_cells;
      noise_.FillFactors(rng, f, sensed, line_cells);
      for (std::size_t k = 0; k < sensed; ++k) {
        cur[k] += v * std::clamp(g_line[k] * f[k], 0.0, ceiling);
      }
    }
  } else {
    // Quiet: the mirror holds the read conductance pre-clamped, so a cell's
    // term is one multiply-add. Register-blocked over the sensed lines, so
    // the accumulators are loaded and stored once per cycle instead of once
    // per driven line: blocks of 16 (eight SSE2 registers), then one block
    // per set bit of the remainder (8, 4, 2, 1), so a narrow sensed width
    // such as a DPE tile's 12 or 24 logical columns stays blocked too.
    std::size_t k = 0;
    for (; k + 16 <= sensed; k += 16) {
      AccumulateQuietBlock<16>(drive, gain, line_cells, k, cur);
    }
    const std::size_t rest = sensed - k;
    if ((rest & 8) != 0) {
      AccumulateQuietBlock<8>(drive, gain, line_cells, k, cur);
      k += 8;
    }
    if ((rest & 4) != 0) {
      AccumulateQuietBlock<4>(drive, gain, line_cells, k, cur);
      k += 4;
    }
    if ((rest & 2) != 0) {
      AccumulateQuietBlock<2>(drive, gain, line_cells, k, cur);
      k += 2;
    }
    if ((rest & 1) != 0) {
      AccumulateQuietBlock<1>(drive, gain, line_cells, k, cur);
    }
  }
  // Every cell on a driven line conducts, sensed or not.
  for (const std::size_t l : drive.lines) {
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
  const double conversion_pj = params_.adc.conversion_energy().pj;
  for (std::size_t k = 0; k < sensed; ++k) {
    codes[k] = params_.adc.Encode(currents[k] * attenuation, full_scale);
    cost.energy_pj += conversion_pj;
  }

  cost.latency_ns = params_.CycleLatencyNs(sensed);
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
