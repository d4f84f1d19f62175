#include "crossbar/crossbar.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <type_traits>

#include "common/contracts.h"

namespace cim::crossbar {
namespace {

// The forward cell stride as a compile-time 1, so the fast kernel's forward
// loops compile to unit-stride code (transposed, the stride is cols).
using UnitStride = std::integral_constant<std::size_t, 1>;

// Quiet-kernel register block: adds every driven line's read currents to
// sensed lines [k0, k0 + W) of a quiet mirror plane, keeping the W
// accumulators in registers across all driven lines. Each accumulator still
// adds the lines in drive.lines order, so no FP sum changes. The block at
// k0 == 0 also sums the driven lines' read and drive energy (in the same
// order) in a register alongside the accumulate and returns it; the others
// return 0.
template <std::size_t W, class Stride>
double AccumulateQuietBlock(const DrivePattern& drive, const double* current,
                            std::size_t line_stride, Stride cell_stride,
                            std::size_t k0, double* __restrict cur,
                            const double* line_energy_pj, double drive_pj) {
  double acc[W];
  for (std::size_t j = 0; j < W; ++j) acc[j] = cur[k0 + j];
  const double* block = current + k0 * cell_stride;
  double energy_pj = 0.0;
  if (k0 == 0) {
    for (const std::size_t l : drive.lines) {
      const double* __restrict line = block + l * line_stride;
      for (std::size_t j = 0; j < W; ++j) acc[j] += line[j * cell_stride];
      energy_pj += line_energy_pj[l];
      energy_pj += drive_pj;
    }
  } else {
    for (const std::size_t l : drive.lines) {
      const double* __restrict line = block + l * line_stride;
      for (std::size_t j = 0; j < W; ++j) acc[j] += line[j * cell_stride];
    }
  }
  for (std::size_t j = 0; j < W; ++j) cur[k0 + j] = acc[j];
  return energy_pj;
}

}  // namespace

Status CrossbarParams::Validate() const {
  if (rows == 0 || cols == 0) {
    return InvalidArgument("crossbar dimensions must be non-zero");
  }
  if (rows > kMaxLines || cols > kMaxLines) {
    return InvalidArgument("crossbar dimensions above " +
                           std::to_string(kMaxLines) + " are not modelled");
  }
  if (columns_per_adc == 0) {
    return InvalidArgument("columns_per_adc must be non-zero");
  }
  if (!AllFinite({ir_drop_alpha, adc.base_latency.ns, adc.base_energy.pj,
                  dac.settle_latency.ns, dac.drive_energy.pj, dac.v_read})) {
    return InvalidArgument("crossbar parameters must be finite");
  }
  // Each is charged per conversion or drive: a negative one would subtract
  // from every cost the array reports.
  if (adc.base_latency.ns < 0.0 || adc.base_energy.pj < 0.0 ||
      dac.settle_latency.ns < 0.0 || dac.drive_energy.pj < 0.0) {
    return InvalidArgument("ADC/DAC latencies and energies must be >= 0");
  }
  if (!AllAtMost({adc.base_latency.ns, dac.settle_latency.ns},
                 kMaxEventLatencyNs) ||
      !AllAtMost({adc.base_energy.pj, dac.drive_energy.pj},
                 kMaxEventEnergyPj)) {
    return InvalidArgument("an ADC conversion or DAC pulse must cost <= 1 s "
                           "and <= 1 J");
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
  // A negative read voltage makes the ADC's full scale negative (Encode's
  // clamp range inverted); zero drives no current, so every MVM reads 0.
  if (dac.v_read <= 0.0) {
    return InvalidArgument("dac.v_read must be positive");
  }
  return cell.Validate();
}

Status PrepareDrive(std::span<const std::uint64_t> codes,
                    DrivePattern* out) {
  CIM_CHECK(out != nullptr);
  for (std::uint64_t code : codes) {
    CIM_REQUIRE(code <= 1, OutOfRange("DAC code exceeds the 1-bit DAC"));
  }
  out->bits.resize(codes.size());
  LoadDriveBit(codes, 0, out);
  return Status::Ok();
}

void LoadDriveBit(std::span<const std::uint64_t> codes, int bit,
                  DrivePattern* out) {
  CIM_DCHECK(out->bits.size() >= codes.size());
  // Branch-free list build: every index is written, and only a driven
  // line's advances the count — bit-serial drive bits are coin flips, so a
  // data-dependent branch here would mispredict on half the lines.
  out->lines.resize(codes.size());
  std::uint8_t* __restrict bits = out->bits.data();
  std::size_t* __restrict lines = out->lines.data();
  std::size_t driven = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto b = static_cast<std::uint8_t>((codes[i] >> bit) & 1U);
    bits[i] = b;
    lines[driven] = i;
    driven += b;
  }
  out->lines.resize(driven);
}

Expected<Crossbar> Crossbar::Create(const CrossbarParams& params, Rng rng) {
  if (Status status = params.Validate(); !status.ok()) return status;
  return Crossbar(params, rng);
}

Crossbar::Crossbar(const CrossbarParams& params, Rng rng)
    : params_(params),
      noise_(params.cell.read_noise_sigma, params.kernel),
      rng_(rng) {
  // Every cell starts as the same fresh g_off cell: one mirror entry, and
  // per line the sequential sum of equal terms RefreshMirror would build.
  const device::CellState fresh = device::FreshCell(params_.cell);
  const std::size_t cells = params_.rows * params_.cols;
  conductance_.assign(cells, fresh.conductance_siemens);
  faults_.assign((cells + 3) / 4, 0);  // 0 is CellFault::kNone
  gain_.assign(cells, MirrorEntry(fresh));
  const double e = fresh.conductance_siemens *
                   (params_.cell.read_energy.pj / params_.cell.g_on_siemens);
  double row_energy = 0.0;
  for (std::size_t c = 0; c < params_.cols; ++c) row_energy += e;
  double col_energy = 0.0;
  for (std::size_t r = 0; r < params_.rows; ++r) col_energy += e;
  row_read_energy_pj_.assign(params_.rows, row_energy);
  col_read_energy_pj_.assign(params_.cols, col_energy);
}

void Crossbar::SetFault(std::size_t i, device::CellFault fault) {
  const int shift = static_cast<int>(2 * (i % 4));
  std::uint8_t& byte = faults_[i / 4];
  byte = static_cast<std::uint8_t>((byte & ~(3U << shift)) |
                                   (static_cast<unsigned>(fault) << shift));
}

void Crossbar::StoreCell(std::size_t i, const device::CellState& cell) {
  conductance_[i] = cell.conductance_siemens;
  SetFault(i, cell.fault);
}

double Crossbar::EffectiveConductance(const device::CellState& cell) const {
  double g = cell.conductance_siemens;
  if (cell.fault == device::CellFault::kStuckOn) g = params_.cell.g_on_siemens;
  if (cell.fault == device::CellFault::kStuckOff) {
    g = params_.cell.g_off_siemens;
  }
  return g;
}

double Crossbar::MirrorEntry(const device::CellState& cell) const {
  const double g = EffectiveConductance(cell);
  if (noise_.enabled()) return g;
  return params_.dac.v_read * std::clamp(g, 0.0, ReadCeiling());
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
      const std::size_t i = r * cols + c;
      gain_[i] = MirrorEntry(CellAt(i));
      // Read energy is ohmic off the stored (pre-fault-override)
      // conductance — mirrors device::ReadCell.
      const double e = conductance_[i] * energy_per_gon;
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
  gain_[row * cols + col] = MirrorEntry(CellAt(row * cols + col));
  // Re-sum the touched row/column energies from scratch (instead of a
  // cheaper add-the-delta) so the mirror depends only on the current cell
  // state, never on the mutation history — FP deltas would drift.
  double row_energy = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    row_energy += conductance_[row * cols + c] * energy_per_gon;
  }
  row_read_energy_pj_[row] = row_energy;
  double col_energy = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    col_energy += conductance_[r * cols + col] * energy_per_gon;
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

  // One pass writes every cell once; the side table's cells (ascending,
  // as this walk is) add their one-at-a-time writes. The pass also
  // rebuilds the mirror: each cell's entry and read energy are stored as it
  // is written, in RefreshMirror's row-major order, so every row and column
  // sum adds the same terms in the same order.
  ++program_passes_;
  const device::WriteVerifyPlan plan(params_.cell);
  const std::size_t rows = params_.rows;
  const std::size_t cols = params_.cols;
  const double energy_per_gon =
      params_.cell.read_energy.pj / params_.cell.g_on_siemens;
  std::fill(col_read_energy_pj_.begin(), col_read_energy_pj_.end(), 0.0);
  auto extra = extra_writes_.cbegin();
  std::uint64_t failures = 0;
  CostReport total;
  for (std::size_t r = 0; r < rows; ++r) {
    double row_latency = 0.0;
    double row_energy = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      std::uint64_t writes = program_passes_;
      if (extra != extra_writes_.cend() && extra->cell == i) {
        writes += extra->writes;
        ++extra;
      }
      device::CellState cell = CellAt(i);
      const device::CellFault fault = cell.fault;
      const device::ProgramResult pr =
          device::ProgramCell(plan, levels[i], writes, cell, rng_);
      conductance_[i] = cell.conductance_siemens;
      // Only wear-out changes a fault code, so the packed byte is
      // rewritten only then.
      if (cell.fault != fault) SetFault(i, cell.fault);
      if (!pr.verified) ++failures;
      total.energy_pj += pr.energy.pj;
      // A row's cells program in parallel (write verify is per row).
      row_latency = std::max(row_latency, pr.latency.ns);
      gain_[i] = MirrorEntry(cell);
      const double e = cell.conductance_siemens * energy_per_gon;
      row_energy += e;
      col_read_energy_pj_[c] += e;
    }
    total.latency_ns += row_latency;  // rows are written serially
    row_read_energy_pj_[r] = row_energy;
  }
  total.operations = levels.size();
  write_attempts_ += levels.size();
  write_verify_failures_ += failures;
  // The level matrix itself had to reach the array from outside.
  total.bytes_moved += static_cast<double>(levels.size()) *
                       static_cast<double>(params_.cell.cell_bits) / 8.0;
  return total;
}

Expected<CostReport> Crossbar::ProgramCell(std::size_t row, std::size_t col,
                                           std::uint64_t level) {
  CIM_REQUIRE(row < params_.rows && col < params_.cols,
              OutOfRange("cell coordinate"));
  CIM_REQUIRE(level <= params_.cell.levels() - 1,
              OutOfRange("cell level exceeds cell_bits"));
  // This cell's side-table entry (made on its first single-cell write)
  // counts one more write.
  const std::size_t i = row * params_.cols + col;
  auto extra = std::lower_bound(
      extra_writes_.begin(), extra_writes_.end(), i,
      [](const ExtraWrites& e, std::size_t cell) { return e.cell < cell; });
  if (extra == extra_writes_.end() || extra->cell != i) {
    extra = extra_writes_.insert(
        extra, ExtraWrites{static_cast<std::uint32_t>(i), 0});
  }
  ++extra->writes;
  device::CellState cell = CellAt(i);
  const device::ProgramResult pr = device::ProgramCell(
      params_.cell, level, program_passes_ + extra->writes, cell, rng_);
  StoreCell(i, cell);
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
  // Deliberately computed off the cell planes (the source of truth), not
  // the mirror: the mirror-invalidation tests compare cycles against this.
  std::vector<double> currents(params_.cols, 0.0);
  for (std::size_t r = 0; r < params_.rows; ++r) {
    CIM_CHECK(row_codes[r] <= 1);
    const double v = params_.dac.LevelVoltage(row_codes[r]);
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < params_.cols; ++c) {
      currents[c] += v * EffectiveConductance(CellAt(r * params_.cols + c));
    }
  }
  return currents;
}

double Crossbar::AccumulateReference(const DrivePattern& drive,
                                     CycleDirection dir, Rng& rng,
                                     std::span<double> currents) {
  const std::size_t line_stride = LineStride(dir);
  const std::size_t cell_stride = CellStride(dir);
  const std::size_t line_cells = SensedLines(dir);
  double energy_pj = 0.0;
  for (std::size_t l = 0; l < DrivenLines(dir); ++l) {
    const double v = params_.dac.LevelVoltage(drive.bits[l]);
    if (v == 0.0) continue;
    for (std::size_t k = 0; k < line_cells; ++k) {
      const device::ReadResult rr = device::ReadCell(
          params_.cell, CellAt(l * line_stride + k * cell_stride), rng);
      currents[k] += v * rr.conductance_siemens;
      energy_pj += rr.energy.pj;
    }
    energy_pj += params_.dac.drive_energy.pj;
  }
  return energy_pj;
}

template <class Stride>
double Crossbar::AccumulateFast(const DrivePattern& drive, CycleDirection dir,
                                Stride cell_stride, std::size_t sensed,
                                Rng& rng, std::span<double> currents) {
  // The one mirror plane, walked by the reference kernel's rule, and the
  // per-line read-energy sums. Every cell on a driven line conducts, sensed
  // or not, so each driven line adds its whole line's read energy and one
  // drive pulse, in drive.lines order.
  CIM_DCHECK(cell_stride == CellStride(dir));
  const double* gain = gain_.data();
  const std::size_t line_stride = LineStride(dir);
  const double* line_energy_pj = dir == CycleDirection::kForward
                                     ? row_read_energy_pj_.data()
                                     : col_read_energy_pj_.data();
  const double drive_pj = params_.dac.drive_energy.pj;
  // __restrict: the mirror, the noise factors and the accumulator never
  // alias, and saying so is what lets the dense loops below vectorize
  // without runtime overlap checks.
  double* __restrict cur = currents.data();
  // Every sensed line owns an independent accumulator chain that adds the
  // driven lines' terms in drive.lines order (ascending — exactly the lines
  // the reference kernel's `v == 0.0` test lets through, in its order), so
  // vectorizing across sensed lines or blocking them cannot reorder any FP
  // sum.
  if (noise_.enabled()) {
    // Per driven line: take the sensed prefix's noise factors — under
    // kFastBitExact drawn into a scratch buffer in the same order the
    // reference kernel consumes the stream (advancing past every cell of a
    // driven line, sensed or not), under kFastNoise the shared tile's
    // window read in place, one rotation draw per line — then run a dense
    // accumulate over the line's mirror entries for cells [0, sensed)
    // only: the ADC never converts the rest, so their currents are never
    // read. The two steps split the sampling from the arithmetic, so the
    // accumulate auto-vectorizes.
    const double ceiling = ReadCeiling();
    const double v = params_.dac.v_read;
    thread_local std::vector<double> scratch;
    if (scratch.size() < sensed) scratch.resize(sensed);
    double energy_pj = 0.0;
    for (const std::size_t l : drive.lines) {
      const double* __restrict g_line = gain + l * line_stride;
      const double* __restrict f =
          noise_.Factors(rng, scratch.data(), sensed, SensedLines(dir));
      for (std::size_t k = 0; k < sensed; ++k) {
        cur[k] += v * std::clamp(g_line[k * cell_stride] * f[k], 0.0, ceiling);
      }
      energy_pj += line_energy_pj[l];
      energy_pj += drive_pj;
    }
    return energy_pj;
  }
  // Quiet: the mirror holds each cell's read current, so a cell's term is
  // one add. Register-blocked over the sensed lines, so the accumulators
  // are loaded and stored once per cycle instead of once per driven line:
  // blocks of 16 (eight SSE2 registers), then one block per set bit of the
  // remainder (8, 4, 2, 1), so a narrow sensed width such as a DPE tile's
  // 12 or 24 logical columns stays blocked too. sensed >= 1, so the first
  // block (k == 0), which returns the energy sum, always runs.
  double energy_pj = 0.0;
  std::size_t k = 0;
  const auto block = [&](auto width) {
    energy_pj += AccumulateQuietBlock<width>(drive, gain, line_stride,
                                             cell_stride, k, cur,
                                             line_energy_pj, drive_pj);
    k += width;
  };
  while (k + 16 <= sensed) block(std::integral_constant<std::size_t, 16>{});
  const std::size_t rest = sensed - k;
  if ((rest & 8) != 0) block(std::integral_constant<std::size_t, 8>{});
  if ((rest & 4) != 0) block(std::integral_constant<std::size_t, 4>{});
  if ((rest & 2) != 0) block(std::integral_constant<std::size_t, 2>{});
  if ((rest & 1) != 0) block(std::integral_constant<std::size_t, 1>{});
  return energy_pj;
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
  CIM_RETURN_IF_ERROR(PrepareDrive(codes, &drive));
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
  CIM_REQUIRE(drive.bits.size() == driven_lines,
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
  const std::size_t summed = reference ? sensed_lines : sensed;
  thread_local std::vector<double> currents;
  if (currents.size() < sensed_lines) currents.resize(sensed_lines);
  std::fill_n(currents.begin(), summed, 0.0);
  const std::span<double> sums = std::span<double>(currents).first(summed);
  CostReport cost;
  if (reference) {
    cost.energy_pj = AccumulateReference(drive, dir, rng, sums);
  } else if (dir == CycleDirection::kForward) {
    cost.energy_pj =
        AccumulateFast(drive, dir, UnitStride{}, sensed, rng, sums);
  } else {
    cost.energy_pj =
        AccumulateFast(drive, dir, params_.cols, sensed, rng, sums);
  }
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
  // Every cell shares one drift factor; when nothing ages, the planes and
  // so the mirror stay as they are.
  const std::optional<double> factor = device::DriftFactor(params_.cell,
                                                           elapsed);
  if (!factor) return;
  for (double& g : conductance_) g = device::Drifted(params_.cell, g, *factor);
  RefreshMirror();
}

void Crossbar::InjectCellFault(std::size_t row, std::size_t col,
                               device::CellFault fault) {
  CIM_CHECK(row < params_.rows && col < params_.cols);
  SetFault(row * params_.cols + col, fault);
  RefreshMirrorCell(row, col);
}

std::size_t Crossbar::CountFaultedCells() const {
  // A cell is faulted when either bit of its code is set; the pad past the
  // last cell stays 0.
  std::size_t n = 0;
  for (const std::uint8_t byte : faults_) {
    n += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>((byte | (byte >> 1)) & 0x55U)));
  }
  return n;
}

std::size_t Crossbar::resident_bytes() const {
  return (conductance_.capacity() + gain_.capacity() +
          row_read_energy_pj_.capacity() + col_read_energy_pj_.capacity()) *
             sizeof(double) +
         faults_.capacity() + extra_writes_.capacity() * sizeof(ExtraWrites);
}

}  // namespace cim::crossbar
