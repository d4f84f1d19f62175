// DSE — design-space exploration sweep with Pareto-frontier artifact.
//
// Expands a SweepSpec grid over {crossbar size, ADC bits, cell bits, spare
// tiles, read-noise sigma, kernel policy}, scores every point on
// {accuracy, latency, energy, area} via dse::SweepDriver, and extracts the
// Pareto front. The gates are sanity invariants of the models, not
// wall-clock numbers, so they run at full strength on every CI leg:
//
//   fidelity/sigma   mean noise self-agreement (noisy vs the same config's
//                    zero-noise outputs) per sigma level must be monotone
//                    non-increasing — read noise can never improve fidelity
//                    to the noiseless computation (§V read-noise accuracy
//                    experiments). Golden-model accuracy is reported but
//                    not gated: quantization dithering makes it
//                    legitimately non-monotone.
//   area/size        mean per-array area per crossbar-size level must be
//                    monotone increasing — bigger arrays cost silicon.
//   bit-identity     the whole sweep re-run serially must serialize to the
//                    byte-identical artifact JSON as the threaded run
//                    (DeriveSeed-per-point determinism; the replay_dse
//                    ctest additionally replays the artifact end to end).
//   frontier         the Pareto front holds >= 4 (full) / >= 2 (smoke)
//                    non-dominated configurations.
//
// Flags:
//   --smoke        coarse grid (SweepSpec::Smoke()); same gates
//   --json <path>  write the sweep artifact. Never contains wall-clock
//                  values, so two runs are byte-identical in either mode.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "dse/artifact.h"
#include "dse/driver.h"
#include "dse/pareto.h"
#include "dse/spec.h"

namespace {

using cim::dse::DesignPoint;
using cim::dse::DriverParams;
using cim::dse::MakeArtifact;
using cim::dse::PointResult;
using cim::dse::SweepDriver;
using cim::dse::SweepSpec;
using cim::dse::WriteSweepJson;

constexpr std::uint64_t kSeed = 0xD5E10;
// Stuck-on cells injected per point: enough that configurations without
// fault tolerance lose accuracy and spare-provisioned ones trade area to
// win it back — the axis the §V.A recovery path puts on the frontier.
constexpr std::size_t kFaultCells = 6;

// Mean of `value` grouped by `key`, in ascending key order. std::map
// iteration is ordered, so the grouping itself is deterministic.
template <typename Key, typename KeyFn, typename ValueFn>
std::vector<std::pair<Key, double>> MeanBy(
    const std::vector<PointResult>& results, KeyFn key, ValueFn value) {
  std::map<Key, std::pair<double, std::size_t>> groups;
  for (const PointResult& r : results) {
    auto& [sum, count] = groups[key(r)];
    sum += value(r);
    ++count;
  }
  std::vector<std::pair<Key, double>> means;
  means.reserve(groups.size());
  for (const auto& [k, sc] : groups) {
    means.emplace_back(k, sc.first / static_cast<double>(sc.second));
  }
  return means;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const SweepSpec spec = smoke ? SweepSpec::Smoke() : SweepSpec::Full();
  DriverParams params;
  params.seed = kSeed;
  params.fault_cells = kFaultCells;
  params.worker_threads = 0;  // hardware concurrency

  auto driver = SweepDriver::Create(params);
  CIM_CHECK(driver.ok());
  std::printf("== dse sweep (%s, %zu points, %zu eval samples) ==\n",
              smoke ? "smoke" : "full", spec.PointCount(),
              params.workload.eval_samples);
  auto results = (*driver)->Run(spec);
  if (!results.ok()) {
    std::printf("FAIL: sweep run: %s\n", results.status().ToString().c_str());
    return 1;
  }
  bool ok = true;

  // --- fidelity monotone non-increasing in noise sigma --------------------
  // Gated on noise_self_agreement (noisy vs the same configuration's
  // zero-noise outputs): exactly 1.0 at sigma 0, and read noise can only
  // lower it. Golden-model accuracy is reported alongside but not gated —
  // quantization bias dithered by moderate noise makes it legitimately
  // non-monotone (see dse::PointResult::noise_self_agreement).
  const auto fidelity_by_sigma = MeanBy<double>(
      *results, [](const PointResult& r) { return r.point.noise_sigma; },
      [](const PointResult& r) { return r.noise_self_agreement; });
  const auto acc_by_sigma = MeanBy<double>(
      *results, [](const PointResult& r) { return r.point.noise_sigma; },
      [](const PointResult& r) { return r.objectives.accuracy; });
  std::printf("%-12s %-16s %s\n", "sigma", "self-agreement",
              "golden accuracy");
  bool fidelity_monotone = true;
  for (std::size_t i = 0; i < fidelity_by_sigma.size(); ++i) {
    std::printf("%-12.3f %-16.4f %.4f\n", fidelity_by_sigma[i].first,
                fidelity_by_sigma[i].second, acc_by_sigma[i].second);
    if (i > 0 && fidelity_by_sigma[i].second >
                     fidelity_by_sigma[i - 1].second + 1e-9) {
      fidelity_monotone = false;
    }
  }
  std::printf("self-agreement monotone non-increasing in sigma: %s\n",
              fidelity_monotone ? "PASS" : "FAIL");
  if (!fidelity_monotone) ok = false;

  // --- per-array area monotone increasing in crossbar size ----------------
  const auto area_by_size = MeanBy<std::size_t>(
      *results, [](const PointResult& r) { return r.point.crossbar_size; },
      [](const PointResult& r) { return r.array_area_um2; });
  bool area_monotone = true;
  for (std::size_t i = 1; i < area_by_size.size(); ++i) {
    if (area_by_size[i].second <= area_by_size[i - 1].second) {
      area_monotone = false;
    }
  }
  std::printf("per-array area monotone increasing in crossbar size: %s\n",
              area_monotone ? "PASS" : "FAIL");
  if (!area_monotone) ok = false;

  // --- serial replay must serialize byte-identically ----------------------
  DriverParams serial_params = params;
  serial_params.worker_threads = 1;
  auto serial_driver = SweepDriver::Create(serial_params);
  CIM_CHECK(serial_driver.ok());
  auto serial_results = (*serial_driver)->Run(spec);
  if (!serial_results.ok()) {
    std::printf("FAIL: serial sweep run: %s\n",
                serial_results.status().ToString().c_str());
    return 1;
  }
  const std::string mode = smoke ? "smoke" : "full";
  const cim::dse::SweepArtifact artifact =
      MakeArtifact(mode, spec, **driver, *std::move(results));
  const cim::dse::SweepArtifact serial_artifact =
      MakeArtifact(mode, spec, **serial_driver, *std::move(serial_results));
  const std::string json = WriteSweepJson(artifact);
  const std::string serial_json = WriteSweepJson(serial_artifact);
  const bool identical = json == serial_json;
  std::printf("bit-identity threaded vs serial sweep: %s\n",
              identical ? "PASS" : "FAIL");
  if (!identical) ok = false;

  // --- Pareto frontier ----------------------------------------------------
  const std::size_t front_min = smoke ? 2 : 4;
  const std::size_t front_size = artifact.pareto_indices.size();
  std::printf("%-40s %8s %12s %12s %10s\n", "frontier config", "acc",
              "latency_ns", "energy_pj", "area_mm2");
  for (std::size_t idx : artifact.pareto_indices) {
    const PointResult& r = artifact.results[idx];
    std::printf("%-40s %8.4f %12.1f %12.1f %10.4f\n",
                r.point.Label().c_str(), r.objectives.accuracy,
                r.objectives.latency_ns, r.objectives.energy_pj,
                r.objectives.area_mm2);
  }
  std::printf("pareto front: %zu non-dominated of %zu points (need >= %zu): "
              "%s\n",
              front_size, spec.PointCount(), front_min,
              front_size >= front_min ? "PASS" : "FAIL");
  if (front_size < front_min) ok = false;

  std::printf("gates: %s\n", ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    CIM_CHECK(out != nullptr);
    CIM_CHECK(std::fwrite(json.data(), 1, json.size(), out) == json.size());
    CIM_CHECK(std::fclose(out) == 0);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
