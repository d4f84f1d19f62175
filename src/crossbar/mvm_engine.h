// Signed fixed-point matrix-vector multiplication on analog crossbars.
//
// One engine implements the ISAAC/DPE scheme the paper's §VI builds on:
//   * weights are quantized to `weight_bits` signed fixed point and split
//     into a differential pair (positive / negative magnitude planes),
//   * each plane is bit-sliced into ceil((weight_bits-1)/cell_bits) crossbar
//     arrays holding one base-2^cell_bits digit each,
//   * inputs are quantized to `input_bits` and streamed bit-serially through
//     1-bit DACs, one analog cycle per input bit,
//   * digital shift-and-add merges (slice, bit) partial sums into the final
//     signed output.
// The engine also keeps the quantized weight codes so tests can compare the
// analog result against the exact quantized product (the only differences
// left are ADC quantization, read noise, IR drop and faults).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/quantize.h"
#include "common/stats.h"
#include "common/status.h"
#include "crossbar/crossbar.h"

namespace cim::crossbar {

struct MvmEngineParams {
  CrossbarParams array;
  int weight_bits = 8;       // signed
  int input_bits = 8;        // unsigned (post-activation values)
  double weight_range = 1.0; // weights clipped to [-weight_range, +range]
  double input_range = 1.0;  // inputs clipped to [0, input_range]
  // Digital shift-and-add periphery cost per partial-sum merge.
  EnergyPj shift_add_energy{0.05};
  TimeNs shift_add_latency{0.1};

  // ABFT guard column (§V.A "extra bits on data"): ProgramWeights also
  // programs one extra physical column per plane holding the scaled row
  // sums of the weight codes, and every Compute senses it and checks
  // |guard_scale * y_guard - sum_c y_c| against an analytic error bound.
  // Any corruption large enough to matter couples into the comparison
  // because the guard weighs every logical column at once. Costs one extra
  // ADC conversion per analog cycle; requires out_dim < array.cols.
  bool guard_column = false;

  [[nodiscard]] Status Validate() const;
  [[nodiscard]] int slices() const {
    return SlicesNeeded(weight_bits, array.cell.cell_bits);
  }
};

struct MvmResult {
  std::vector<double> y;
  CostReport cost;
  // Guard-column verdict (meaningful only when guard_checked): the §V.A
  // tile-boundary detection signal the DPE recovery path keys off.
  bool guard_checked = false;
  bool guard_ok = true;
  double guard_residual = 0.0;
  double guard_threshold = 0.0;
};

// Aggregate program-verify telemetry of every array in an engine; feeds
// the reliability::AgingMonitor's verify-failure-rate health signal.
struct EngineWriteStats {
  std::uint64_t attempts = 0;
  std::uint64_t verify_failures = 0;
};

class MvmEngine {
 public:
  // in_dim <= array.rows, out_dim <= array.cols. Larger matrices are tiled
  // across engines by the DPE layer.
  [[nodiscard]] static Expected<MvmEngine> Create(
      const MvmEngineParams& params, std::size_t in_dim, std::size_t out_dim,
      Rng rng);

  [[nodiscard]] std::size_t in_dim() const { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const { return out_dim_; }
  [[nodiscard]] const MvmEngineParams& params() const { return params_; }

  // Quantize and program `weights` (row-major, in_dim x out_dim). Returns
  // the aggregate programming cost across all slice arrays.
  [[nodiscard]] Expected<CostReport> ProgramWeights(
      std::span<const double> weights);

  // Incremental update: diff against the currently programmed codes and
  // rewrite only the cells whose digit changed — the write-sparse path
  // that makes in-situ training affordable despite asymmetric writes.
  // Returns the update cost; result.operations counts rewritten cells.
  [[nodiscard]] Expected<CostReport> UpdateWeights(
      std::span<const double> weights);

  // Analog matrix-vector product y = W^T x (x has in_dim entries; y has
  // out_dim entries).
  //
  // `noise_rng`, when provided, supplies the read-noise stream for every
  // analog cycle of this invocation and leaves the engine's internal
  // crossbar streams untouched; the call then mutates no engine state, so
  // concurrent Compute calls on one engine are safe as long as each passes
  // its own Rng. This is how the DPE runtime executes tiles and batch
  // elements in parallel while staying bit-identical at any thread count.
  [[nodiscard]] Expected<MvmResult> Compute(std::span<const double> x,
                                            Rng* noise_rng = nullptr);

  // Transpose (backward) product g = W e using the crossbar's
  // bidirectionality — the in-situ backpropagation path. The error vector
  // `e` (out_dim entries) may be signed: it is split into positive and
  // negative passes, costing 2x the cycles of a forward MVM. `noise_rng`
  // carries the same contract as in Compute: with an external stream the
  // call mutates no engine state, so the backward path is safe to run
  // concurrently with itself or with forward Computes.
  [[nodiscard]] Expected<MvmResult> ComputeTranspose(
      std::span<const double> e, Rng* noise_rng = nullptr);

  // Exact product of the *quantized* weights with the *quantized* input —
  // the golden reference that isolates analog error from quantization.
  [[nodiscard]] Expected<std::vector<double>> GoldenCompute(
      std::span<const double> x) const;

  // Exact transpose product of the quantized weights with the quantized
  // (signed) error vector.
  [[nodiscard]] Expected<std::vector<double>> GoldenComputeTranspose(
      std::span<const double> e) const;

  // Worst-case |analog - golden| bound per output from one ADC step of
  // error per (slice, bit) cycle. Used by property tests.
  [[nodiscard]] double AdcErrorBound() const;

  // Fault the logical cell (row, col) in every bit-slice array of one
  // plane (0 = positive, 1 = negative) — what a physical defect at one
  // crosspoint looks like after bit-slicing replicates the position across
  // arrays.
  void InjectCellFault(int plane, std::size_t row, std::size_t col,
                       device::CellFault fault);

  // Program-verify telemetry summed over every plane/slice array.
  [[nodiscard]] EngineWriteStats write_stats() const;

  // Host bytes of cell state summed over every plane/slice array (see
  // Crossbar::resident_bytes).
  [[nodiscard]] std::size_t resident_bytes() const;

  void Age(TimeNs elapsed);

 private:
  MvmEngine(const MvmEngineParams& params, std::size_t in_dim,
            std::size_t out_dim);

  [[nodiscard]] std::int64_t QuantizeWeight(double w) const;
  [[nodiscard]] std::uint64_t QuantizeInput(double x) const;

  // One bit-serial sweep of `codes` (one entry per logical driven line)
  // through every (slice, plane) array in direction `dir`: per input bit, a
  // shared drive pattern, one analog cycle per array sensing accum.size()
  // lines, and the shift-and-add of sign * 2^(bit + slice*cell_bits) *
  // digit sum (negated on the negative plane) into `accum`. A digit sum
  // depends only on the ADC code within a bit, so each distinct code is
  // decoded once per bit (a per-thread table). Cycle cost adds into `cost`.
  // Compute runs one forward sweep; ComputeTranspose runs a transpose sweep
  // per sign of the error.
  [[nodiscard]] Status BitSweep(CycleDirection dir,
                                std::span<const std::uint64_t> codes,
                                double sign, Rng* noise_rng,
                                std::span<double> accum, CostReport& cost);

  // Weight step x input step: what one unit of accumulated digit sum is
  // worth in output units.
  [[nodiscard]] double OutputScale() const;

  // The guard threshold's input-independent terms, computed once at Create
  // from the params and in_dim: the per-cycle digit-error spread rho and
  // the shift-and-add weights' root-sum-square.
  void InitGuardSpread();

  // Fault-free residual spread estimate behind the guard threshold;
  // `sum_x_codes` is the current input's total code mass.
  [[nodiscard]] double GuardThreshold(double sum_x_codes) const;

  // The array holding digit `slice` of plane `plane` (0 = positive,
  // 1 = negative).
  [[nodiscard]] Crossbar& ArrayAt(int slice, int plane) {
    return arrays_[static_cast<std::size_t>(2 * slice + plane)];
  }

  MvmEngineParams params_;
  std::size_t in_dim_;
  std::size_t out_dim_;
  // Every (slice, plane) array in (slice, plane) order: index 2*s + plane.
  std::vector<Crossbar> arrays_;
  std::vector<std::int64_t> weight_codes_;  // in_dim x out_dim, row-major
  std::vector<std::int64_t> guard_codes_;   // in_dim row sums / guard_scale_
  // Integer downscale applied to the guard column's row sums so they fit a
  // weight code (1 until row sums overflow).
  std::int64_t guard_scale_ = 0;
  // InitGuardSpread's results.
  double guard_rho_ = 0.0;
  double guard_w_rms_ = 0.0;
  bool programmed_ = false;
};

}  // namespace cim::crossbar
