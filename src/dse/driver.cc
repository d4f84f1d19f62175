#include "dse/driver.h"

#include <algorithm>
#include <span>
#include <utility>
#include <variant>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dpe/accelerator.h"
#include "dpe/analytical.h"
#include "dpe/area.h"
#include "nn/dataset.h"

namespace cim::dse {
namespace {

// Sub-stream indices under the sweep root / point seed. Named so the
// derivation map is auditable in one place (docs/DSE.md documents it).
constexpr std::uint64_t kWorkloadNetStream = 0;
constexpr std::uint64_t kWorkloadDataStream = 1;
constexpr std::uint64_t kPointProgramStream = 0;
constexpr std::uint64_t kPointFaultStream = 1;

std::size_t ArgMax(std::span<const double> v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace

Status WorkloadParams::Validate() const {
  if (widths.size() < 2) return InvalidArgument("widths needs >= 2 entries");
  for (std::size_t w : widths) {
    if (w == 0) return InvalidArgument("widths entries must be > 0");
  }
  if (classes < 2 || widths.back() != classes) {
    return InvalidArgument("widths must end in `classes` output features");
  }
  if (eval_samples == 0) return InvalidArgument("eval_samples == 0");
  if (weight_scale <= 0.0 || cluster_spread <= 0.0) {
    return InvalidArgument("weight_scale and cluster_spread must be > 0");
  }
  return Status::Ok();
}

Expected<SweepWorkload> SweepWorkload::Make(const WorkloadParams& p,
                                            std::uint64_t seed) {
  if (Status s = p.Validate(); !s.ok()) return s;
  SweepWorkload w;
  w.app_class = p.app_class;

  Rng net_rng(DeriveSeed(seed, kWorkloadNetStream));
  w.net = nn::BuildMlp("dse-sweep-mlp", p.widths, net_rng, p.weight_scale);

  nn::DatasetParams dp;
  dp.dim = p.widths.front();
  dp.classes = p.classes;
  dp.samples_per_class =
      (p.eval_samples + p.classes - 1) / p.classes;  // ceil: >= one per class
  dp.cluster_spread = p.cluster_spread;
  Rng data_rng(DeriveSeed(seed, kWorkloadDataStream));
  auto data = nn::MakeClusterDataset(dp, data_rng);
  if (!data.ok()) return data.status();

  // The dataset is grouped by class; pick eval samples round-robin across
  // classes so every class is represented even for small eval_samples.
  w.inputs.reserve(p.eval_samples);
  w.golden_top1.reserve(p.eval_samples);
  for (std::size_t i = 0; i < p.eval_samples; ++i) {
    const std::size_t cls = i % p.classes;
    const std::size_t within = i / p.classes;
    const std::size_t idx = cls * dp.samples_per_class + within;
    nn::Tensor input({dp.dim});
    input.vec() = data->samples[idx];
    auto golden = nn::Forward(w.net, input);
    if (!golden.ok()) return golden.status();
    w.golden_top1.push_back(ArgMax(golden->vec()));
    w.inputs.push_back(std::move(input));
  }
  return w;
}

Status DriverParams::Validate() const {
  if (worker_threads > kMaxWorkerThreads) {
    return InvalidArgument("worker_threads must be <= 256");
  }
  if (Status s = base.Validate(); !s.ok()) return s;
  return workload.Validate();
}

Expected<std::unique_ptr<SweepDriver>> SweepDriver::Create(
    const DriverParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  auto workload = SweepWorkload::Make(params.workload, params.seed);
  if (!workload.ok()) return workload.status();
  return std::unique_ptr<SweepDriver>(
      new SweepDriver(params, *std::move(workload)));
}

Expected<PointResult> SweepDriver::EvaluatePoint(
    const DesignPoint& point) const {
  const dpe::DpeParams dpe_params = point.ToDpeParams(params_.base);
  const std::uint64_t point_seed = DeriveSeed(params_.seed, point.index);

  // The point's accelerator plus its noise-free twin: identical
  // configuration, programming stream, and injected faults, with only the
  // read-noise sigma zeroed. The twin's outputs are the reference for
  // noise_self_agreement.
  dpe::DpeParams quiet_params = dpe_params;
  quiet_params.array.cell.read_noise_sigma = 0.0;
  auto acc = dpe::DpeAccelerator::Create(
      dpe_params, workload_.net,
      Rng(DeriveSeed(point_seed, kPointProgramStream)));
  if (!acc.ok()) return acc.status();
  auto quiet = dpe::DpeAccelerator::Create(
      quiet_params, workload_.net,
      Rng(DeriveSeed(point_seed, kPointProgramStream)));
  if (!quiet.ok()) return quiet.status();

  if (params_.fault_cells > 0) {
    // Stuck-on cells in the first (largest) layer, at positions derived
    // from the point seed — identical across re-runs, independent across
    // points. Configurations without fault tolerance eat the corruption;
    // configurations with spares detect and recover, which is what makes
    // the spare-tiles axis trade area for accuracy.
    const auto& first = std::get<nn::DenseLayer>(workload_.net.layers.front());
    for (dpe::DpeAccelerator* target : {acc->get(), quiet->get()}) {
      Rng fault_rng(DeriveSeed(point_seed, kPointFaultStream));
      for (std::size_t f = 0; f < params_.fault_cells; ++f) {
        const auto row =
            static_cast<std::size_t>(fault_rng.NextBounded(first.in_features));
        const auto col = static_cast<std::size_t>(
            fault_rng.NextBounded(first.out_features));
        if (Status s =
                target->InjectFault(0, row, col, device::CellFault::kStuckOn);
            !s.ok()) {
          return s;
        }
      }
    }
  }

  PointResult result;
  result.point = point;

  std::size_t golden_agree = 0;
  std::size_t self_agree = 0;
  for (std::size_t i = 0; i < workload_.inputs.size(); ++i) {
    auto inferred = (*acc)->Infer(workload_.inputs[i]);
    if (!inferred.ok()) return inferred.status();
    auto quiet_inferred = (*quiet)->Infer(workload_.inputs[i]);
    if (!quiet_inferred.ok()) return quiet_inferred.status();
    const std::size_t noisy_top1 = ArgMax(inferred->output.vec());
    if (noisy_top1 == workload_.golden_top1[i]) ++golden_agree;
    if (noisy_top1 == ArgMax(quiet_inferred->output.vec())) ++self_agree;
  }
  const auto samples = static_cast<double>(workload_.inputs.size());
  result.objectives.accuracy = static_cast<double>(golden_agree) / samples;
  result.noise_self_agreement = static_cast<double>(self_agree) / samples;
  result.faults_detected = (*acc)->recovery_stats().detected;
  result.faults_degraded = (*acc)->recovery_stats().degraded;

  dpe::AnalyticalDpeModel model(dpe_params);
  auto estimate = model.EstimateInference(workload_.net);
  if (!estimate.ok()) return estimate.status();
  result.objectives.latency_ns = estimate->latency_ns;
  result.objectives.energy_pj = estimate->energy_pj;

  // Provisioned spare tiles occupy silicon whether or not a fault ever
  // lands on them: 2 differential planes x slices arrays per spare tile.
  const std::size_t spare_arrays =
      point.spare_tiles * 2 * static_cast<std::size_t>(dpe_params.slices());
  result.arrays_used = estimate->arrays_used + spare_arrays;
  dpe::AreaModel area({}, dpe_params);
  result.array_area_um2 = area.ArrayAreaUm2();
  result.objectives.area_mm2 = area.ChipAreaMm2(result.arrays_used);
  return result;
}

Expected<std::vector<PointResult>> SweepDriver::Run(
    const SweepSpec& spec) const {
  auto points = ExpandGrid(spec, params_.base);
  if (!points.ok()) return points.status();

  const std::size_t n = points->size();
  std::vector<PointResult> results(n);
  std::vector<Status> statuses(n, Status::Ok());
  const auto eval = [&](std::size_t i) {
    auto r = EvaluatePoint((*points)[i]);
    if (r.ok()) {
      results[i] = *std::move(r);
    } else {
      statuses[i] = r.status();
    }
  };

  // No more threads than points: the caller drains one, each worker
  // another (a grid always has at least one point).
  ThreadPool pool(std::min(WorkersForThreads(params_.worker_threads), n - 1));
  pool.ParallelFor(n, eval);

  // First error in grid order wins, independent of evaluation order.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return results;
}

std::vector<Objectives> ObjectivesOf(const std::vector<PointResult>& results) {
  std::vector<Objectives> objectives;
  objectives.reserve(results.size());
  for (const PointResult& r : results) objectives.push_back(r.objectives);
  return objectives;
}

}  // namespace cim::dse
