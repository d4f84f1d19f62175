// Analog memristor crossbar array.
//
// A rows x cols grid of MemristorCell with line DACs and shared ADCs.
// One analog cycle applies voltages on all rows simultaneously and senses
// every column current — a full matrix-vector multiply in O(1) array time,
// which is the physical basis of the paper's CIM performance claims: the
// weights never move, so the "memory bandwidth" of the operation is the
// whole array refreshed every cycle. The array is bidirectional: the same
// cycle run the other way drives the columns and senses the rows (the DPE
// in-situ training property), so one kernel and one cycle driver serve both
// directions, parameterised by CycleDirection.
//
// Kernel structure: the cell grid is the array-of-structs source of truth
// (program/verify, wear, drift, faults all live on MemristorCell), but the
// cycle hot loop runs on a structure-of-arrays mirror — a contiguous
// fault-adjusted conductance plane (pre-clamped to the read ceiling on a
// quiet array) plus per-row/per-column read-energy sums — refreshed
// whenever a mutation (ProgramLevels / ProgramCell / Age / InjectCellFault)
// dirties it. Which kernel runs — and which correctness
// contract it carries — is selected by CrossbarParams::kernel (see
// device::KernelPolicy): the per-cell reference walk, the bit-identical SoA
// fast path, or the statistically-equivalent fast-noise path whose lognormal
// sampling is owned by device::NoiseModel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "crossbar/adc.h"
#include "device/memristor.h"
#include "device/noise_model.h"

namespace cim::crossbar {

struct CrossbarParams {
  std::size_t rows = 128;
  std::size_t cols = 128;
  device::MemristorParams cell;
  AdcParams adc;
  DacParams dac;
  // How many columns share one ADC; conversions for those columns are
  // serialized within the cycle. ISAAC shares one ADC across a full array.
  std::size_t columns_per_adc = 128;
  // First-order IR-drop model: sensed current is attenuated by
  // (1 - alpha * active_row_fraction), capturing wire resistance loss that
  // grows with simultaneously driven rows.
  double ir_drop_alpha = 0.02;
  // Which cycle kernel runs and which correctness contract it carries:
  //   kReference    — original array-of-structs per-cell walk (golden).
  //   kFastBitExact — SoA fast path, bit-identical column codes / transpose
  //                   row codes to kReference (the kernel differential test
  //                   enforces it; only cycle energy differs in the last
  //                   ulps, since read energy folds to one analytic add per
  //                   driven line).
  //   kFastNoise    — SoA fast path with device::NoiseModel's counter-based
  //                   vectorizable sampler: statistically equivalent noise
  //                   (KS + moment gate, NN accuracy parity), not
  //                   bit-identical. The serving configuration for noisy
  //                   devices.
  device::KernelPolicy kernel = device::KernelPolicy::kFastBitExact;

  [[nodiscard]] Status Validate() const;

  // Latency of one analog cycle that senses `sensed` lines: one DAC settle
  // and read pulse for every driven line in parallel, then the serial
  // conversions of one shared ADC. Each of the ceil(sensed /
  // columns_per_adc) ADCs converts its share while all run in parallel, so
  // the critical path is one ADC's share. Crossbar::CycleDriven reports it
  // and the analytical DPE model prices its invocations with it.
  [[nodiscard]] double CycleLatencyNs(std::size_t sensed) const {
    const double serial_conversions = std::min(
        static_cast<double>(columns_per_adc), static_cast<double>(sensed));
    return dac.settle_latency.ns + cell.read_latency.ns +
           serial_conversions * adc.conversion_latency().ns;
  }
};

// Which way a cycle runs through the array. kForward drives the rows and
// senses the columns (y = W^T x); kTranspose drives the columns and senses
// the rows (g = W e). Everything direction-dependent — drive width, sensed
// width, full scale, IR-drop divisor, which mirror plane is contiguous —
// follows from it.
enum class CycleDirection { kForward, kTranspose };

// Result of one analog MVM cycle: raw ADC codes per sensed line (columns
// forward, rows transposed) and the cost.
struct AnalogCycleResult {
  std::vector<std::uint64_t> column_codes;
  CostReport cost;
};

// Precomputed drive pattern for one analog cycle: per-line DAC voltages
// plus the driven-line list — the ascending indices of the nonzero-voltage
// lines. The MVM engine builds one pattern per input bit and shares it
// across every (slice, plane) array, so code validation, voltage expansion
// and finding the driven lines are paid once per bit instead of once per
// array per bit; the fast kernel then walks only the listed lines.
struct DrivePattern {
  std::vector<double> voltages;
  std::vector<std::size_t> lines;
  // Number of driven (nonzero-voltage) lines.
  [[nodiscard]] std::size_t active() const { return lines.size(); }
};

// Validate `dac.bits` (in [1, 16]) and `codes` against it (every code <
// 2^dac.bits) and expand them into per-line voltages (looked up in a
// per-thread table of the DAC's level voltages) and the driven-line list in
// `out` (reusing its storage).
[[nodiscard]] Status PrepareDrive(const DacParams& dac,
                                  std::span<const std::uint64_t> codes,
                                  DrivePattern* out);

class Crossbar {
 public:
  // Factory validates parameters; the constructor itself cannot fail.
  [[nodiscard]] static Expected<Crossbar> Create(const CrossbarParams& params,
                                                 Rng rng);

  [[nodiscard]] std::size_t rows() const { return params_.rows; }
  [[nodiscard]] std::size_t cols() const { return params_.cols; }
  [[nodiscard]] const CrossbarParams& params() const { return params_; }

  // Program the whole array to the given level matrix (row-major,
  // rows*cols entries, each < 2^cell_bits). Returns aggregate write cost.
  // Programming is the slow path (asymmetric write latency, §VI).
  [[nodiscard]] Expected<CostReport> ProgramLevels(
      std::span<const std::uint64_t> levels);

  // Program a single cell (incremental weight update path): far cheaper
  // than a full reprogram when training touches few cells.
  [[nodiscard]] Expected<CostReport> ProgramCell(std::size_t row,
                                                 std::size_t col,
                                                 std::uint64_t level);

  // One analog cycle: drive every row with a DAC code (row_codes.size() ==
  // rows, each < 2^dac_bits), sense and digitize the first `active_cols`
  // columns (0 = all). Column gating lets narrow logical matrices skip ADC
  // conversions for unused columns — and, under the fast kernels, the host
  // work for them; the noise stream advances as if every column were read.
  //
  // `noise_rng` selects the stream the cell read noise draws from. When
  // null the crossbar's internal stream is used (and advanced). When
  // provided, the internal stream is untouched and the call mutates no
  // crossbar state at all — concurrent Cycle calls on one crossbar are safe
  // as long as each passes its own Rng. The DPE runtime uses this to give
  // every MVM invocation a seed derived from (tile, call index), making
  // results independent of thread count and scheduling.
  [[nodiscard]] Expected<AnalogCycleResult> Cycle(
      std::span<const std::uint64_t> row_codes, std::size_t active_cols = 0,
      Rng* noise_rng = nullptr);

  // Transpose cycle: drive the columns, sense the rows (y -> W y). The
  // crossbar is bidirectional — the property the DPE lineage exploits for
  // in-situ backpropagation. Returns `active_rows` row codes. `noise_rng`
  // carries the same contract as in Cycle: with an external stream the
  // call mutates no crossbar state, so the training/backward path gets the
  // same concurrency guarantees as the forward one.
  [[nodiscard]] Expected<AnalogCycleResult> CycleTranspose(
      std::span<const std::uint64_t> col_codes, std::size_t active_rows = 0,
      Rng* noise_rng = nullptr);

  // The one cycle driver behind Cycle and CycleTranspose, taking a
  // pre-validated drive pattern (see PrepareDrive) — the MVM engine's fused
  // bit-sweep entry point. `drive` holds one voltage per driven line of
  // `dir`; the first `sensed` lines of the other side are digitised
  // (0 = all) and their ADC codes written to codes[0, sensed), which must
  // fit (entries past `sensed` are left as they are). Returns the cycle's
  // cost. Allocation-free once warm: the caller owns the code buffer and
  // the sensed currents live in per-thread scratch, so an engine sweeping
  // many cycles reuses one buffer. `noise_rng` carries Cycle's contract.
  [[nodiscard]] Expected<CostReport> CycleDriven(
      const DrivePattern& drive, CycleDirection dir, std::size_t sensed,
      std::span<std::uint64_t> codes, Rng* noise_rng = nullptr);

  // Full-scale sensed current the ADC range is calibrated to: every driven
  // line of `dir` at v_read through a g_on cell.
  [[nodiscard]] double FullScaleCurrent(
      CycleDirection dir = CycleDirection::kForward) const;

  // Noise-free expected column currents for a drive vector — used by tests
  // and golden models to bound quantization error. Reflects stuck-cell
  // faults (a stuck cell's expected current is its stuck conductance).
  [[nodiscard]] std::vector<double> IdealColumnCurrents(
      std::span<const std::uint64_t> row_codes) const;

  // Age every cell by `elapsed` (conductance drift).
  void Age(TimeNs elapsed);

  // Fault-injection hooks (reliability experiments).
  void InjectCellFault(std::size_t row, std::size_t col,
                       device::CellFault fault);
  [[nodiscard]] std::size_t CountFaultedCells() const;

  // Write-verify telemetry for the aging monitor (§V.D): every cell
  // program counts as one attempt; an attempt whose program-verify loop
  // exhausted its budget (ProgramResult.verified == false — faulted or
  // badly worn cells) counts as a failure.
  [[nodiscard]] std::uint64_t write_attempts() const {
    return write_attempts_;
  }
  [[nodiscard]] std::uint64_t write_verify_failures() const {
    return write_verify_failures_;
  }

  // Direct cell access for white-box tests.
  [[nodiscard]] const device::MemristorCell& cell(std::size_t row,
                                                  std::size_t col) const {
    CIM_DCHECK(row < params_.rows && col < params_.cols);
    return cells_[row * params_.cols + col];
  }

 private:
  Crossbar(const CrossbarParams& params, Rng rng);

  // Fault-adjusted conductance a read of this cell sees before noise.
  [[nodiscard]] double EffectiveConductance(
      const device::MemristorCell& cell) const;
  // The value the SoA mirror caches per cell: EffectiveConductance, clamped
  // to [0, ReadCeiling()] on a quiet array (read_noise_sigma 0), where that
  // clamped value is exactly what every read returns.
  [[nodiscard]] double MirrorConductance(
      const device::MemristorCell& cell) const;
  // Soft physical ceiling on a read's conductance, as MemristorCell::Read
  // applies it.
  [[nodiscard]] double ReadCeiling() const {
    return params_.cell.g_on_siemens * 1.5;
  }

  // Rebuild the whole SoA mirror from cells_ (after ProgramLevels / Age),
  // or just the entries touched by cell (row, col) (after ProgramCell /
  // InjectCellFault). Mutations refresh eagerly, never lazily, so cycles
  // with external noise streams stay free of any crossbar-state writes and
  // remain safe to run concurrently.
  void RefreshMirror();
  void RefreshMirrorCell(std::size_t row, std::size_t col);

  // Cycle / CycleTranspose: validate and expand raw drive codes, then run
  // CycleDriven.
  [[nodiscard]] Expected<AnalogCycleResult> CycleCodes(
      std::span<const std::uint64_t> codes, CycleDirection dir,
      std::size_t sensed, Rng* noise_rng);

  // Drive and sense widths of one direction: rows x cols forward, cols x
  // rows transposed.
  [[nodiscard]] std::size_t DrivenLines(CycleDirection dir) const {
    return dir == CycleDirection::kForward ? params_.rows : params_.cols;
  }
  [[nodiscard]] std::size_t SensedLines(CycleDirection dir) const {
    return dir == CycleDirection::kForward ? params_.cols : params_.rows;
  }

  // The two kernels behind CycleDriven, one per correctness contract, each
  // serving both directions: walk the driven lines, accumulate the sensed
  // lines' noisy currents into `currents` and read+drive energy into
  // `energy_pj`. AccumulateReference reads cells_ (the source of truth, not
  // the mirror) and scans every line's voltage, so it stays an independent
  // oracle. AccumulateFast walks only drive.lines — the same lines in the
  // same ascending order the scan visits, so the noise draws and every
  // sensed line's FP sum keep their order. It serves
  // kFastBitExact (identical codes to kReference, enforced by
  // mvm_kernel_test) and kFastNoise (statistically equivalent,
  // noise_equivalence_test + bench gate); noise_.FillFactors owns the
  // difference. It runs on the mirror plane whose lines are contiguous in
  // `dir` and is sense-gated: it evaluates only the sensed prefix
  // [0, sensed) the ADC digitises, while the noise stream still advances
  // for every cell of a driven line, so the codes and the post-cycle stream
  // match the reference kernel, which reads every cell. On a quiet array
  // it is a register-blocked multiply-add over the pre-clamped mirror:
  // each block of sensed-line accumulators stays in registers across every
  // driven line.
  void AccumulateReference(const DrivePattern& drive, CycleDirection dir,
                           Rng& rng, std::span<double> currents,
                           double& energy_pj);
  void AccumulateFast(const DrivePattern& drive, CycleDirection dir,
                      std::size_t sensed, Rng& rng,
                      std::span<double> currents, double& energy_pj);

  CrossbarParams params_;
  // Sampling strategy for the fast kernels' read-noise factors, fixed at
  // construction from (cell.read_noise_sigma, kernel policy).
  device::NoiseModel noise_;
  std::vector<device::MemristorCell> cells_;
  // SoA mirror of cells_: contiguous MirrorConductance values (row major,
  // plus a column-major copy so the transpose direction also walks unit
  // stride; pre-clamped on a quiet array, so its cycle needs no clamp) and
  // per-row / per-column read-energy sums (a cycle's ohmic read energy
  // depends only on the stored conductances, so it folds into one add per
  // driven line instead of one multiply-add per cell).
  std::vector<double> gain_;
  std::vector<double> gain_transposed_;
  std::vector<double> row_read_energy_pj_;
  std::vector<double> col_read_energy_pj_;
  Rng rng_;
  std::uint64_t write_attempts_ = 0;
  std::uint64_t write_verify_failures_ = 0;
};

}  // namespace cim::crossbar
