// Sweep driver: expand a SweepSpec and score every design point.
//
// Each point is evaluated end to end — accuracy by running the behavioural
// DpeAccelerator against the float golden model on a shared workload
// (nn::BuildMlp + nn::MakeClusterDataset), latency/energy by the analytical
// DPE model, area by the silicon area model — and the four numbers become
// the point's Pareto Objectives. Points run concurrently on a
// cim::ThreadPool, but every point draws its randomness from
// Rng(DeriveSeed(root seed, point.index)), so a sweep's results are
// bit-identical at any thread count (including fully serial), which is what
// the artifact's two-run byte-diff gate (the replay_dse ctest) replays.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dse/pareto.h"
#include "dse/spec.h"
#include "nn/network.h"
#include "nn/tensor.h"
#include "workloads/workloads.h"

namespace cim::dse {

// The shared evaluation workload: one MLP classifier plus a slice of its
// cluster dataset. All design points score the *same* network and inputs so
// accuracy differences are attributable to the configuration alone.
struct WorkloadParams {
  std::vector<std::size_t> widths = {32, 48, 6};  // first entry = input dim
  std::size_t classes = 6;
  std::size_t eval_samples = 30;
  double weight_scale = 0.3;
  // Wide clusters on purpose: with tight clusters every sample of a class
  // shares one argmax and accuracy collapses to ~`classes` independent
  // values; spread like this keeps the 30 eval samples decorrelated.
  double cluster_spread = 0.30;
  // The paper's Table 2 class this workload instantiates; echoed into the
  // artifact so the frontier is read in suitability context.
  workloads::AppClass app_class = workloads::AppClass::kNeuralNetworks;

  [[nodiscard]] Status Validate() const;
};

struct SweepWorkload {
  nn::Network net;
  std::vector<nn::Tensor> inputs;
  std::vector<std::size_t> golden_top1;  // argmax of the float forward pass
  workloads::AppClass app_class = workloads::AppClass::kNeuralNetworks;

  // Build the workload from (params, seed): network weights and dataset are
  // drawn from DeriveSeed children of `seed`, independent of every
  // per-point stream.
  [[nodiscard]] static Expected<SweepWorkload> Make(const WorkloadParams& p,
                                                    std::uint64_t seed);
};

// One scored design point.
struct PointResult {
  DesignPoint point;
  Objectives objectives;
  // Top-1 agreement between this point's (noisy) outputs and the outputs of
  // the same configuration with read noise forced to zero — everything else
  // (programmed conductances, injected faults, quantization) identical. By
  // construction 1.0 at sigma 0; read noise can only lower it, which is the
  // monotone invariant bench_dse_sweep gates on. The golden-model accuracy
  // in `objectives` is NOT sigma-monotone here: quantization bias can be
  // dithered by moderate noise (stochastic resonance), a real effect this
  // metric deliberately factors out.
  double noise_self_agreement = 1.0;
  std::size_t arrays_used = 0;     // inference arrays + provisioned spares
  double array_area_um2 = 0.0;     // one array + periphery share
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_degraded = 0;
};

struct DriverParams {
  // Base configuration every point overlays (dpe::DpeParams::Isaac()).
  dpe::DpeParams base = dpe::DpeParams::Isaac();
  // Threads evaluating points (including the caller); 0 = hardware
  // concurrency, 1 = serial. Results are bit-identical at every setting.
  std::size_t worker_threads = 0;
  std::uint64_t seed = 0x0d5eULL;
  // Stuck-on cells injected into layer 0 of every point's accelerator at
  // DeriveSeed-keyed positions. Gives the spare-tiles axis observable
  // effect: without injected faults, spares are pure area overhead.
  std::size_t fault_cells = 0;
  WorkloadParams workload;

  [[nodiscard]] Status Validate() const;
};

class SweepDriver {
 public:
  [[nodiscard]] static Expected<std::unique_ptr<SweepDriver>> Create(
      const DriverParams& params);

  // Expand `spec` against the base configuration and score every point.
  // Results are in canonical grid order (PointResult i is grid index i).
  [[nodiscard]] Expected<std::vector<PointResult>> Run(
      const SweepSpec& spec) const;

  [[nodiscard]] const SweepWorkload& workload() const { return workload_; }
  [[nodiscard]] const DriverParams& params() const { return params_; }

 private:
  SweepDriver(DriverParams params, SweepWorkload workload)
      : params_(std::move(params)), workload_(std::move(workload)) {}

  [[nodiscard]] Expected<PointResult> EvaluatePoint(
      const DesignPoint& point) const;

  DriverParams params_;
  SweepWorkload workload_;
};

// Convenience for callers that need objectives only.
[[nodiscard]] std::vector<Objectives> ObjectivesOf(
    const std::vector<PointResult>& results);

}  // namespace cim::dse
