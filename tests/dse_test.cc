// Design-space exploration harness: spec expansion, Pareto dominance
// properties, artifact byte-stability, and thread-count determinism.
//
//   1. SweepSpec/ExpandGrid — grid size, canonical row-major order, empty
//      axes inheriting the base configuration, validation rejections.
//   2. Pareto extractor — algebraic dominance semantics plus a randomized
//      property: the emitted front is exactly the brute-force non-dominated
//      set (no emitted point dominated, every excluded point dominated).
//   3. Artifact writer — golden byte-for-byte JSON (same pattern as the
//      cimlint SARIF goldens): any formatting drift breaks the replay_dse
//      gate, so it must fail a test first.
//   4. SweepDriver — per-point DeriveSeed streams make the whole sweep
//      artifact byte-identical at any worker_threads setting.
#include "dse/artifact.h"
#include "dse/driver.h"
#include "dse/pareto.h"
#include "dse/spec.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "boundary_values.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "device/noise_model.h"
#include "gtest/gtest.h"

namespace cim::dse {
namespace {

using device::KernelPolicy;

SweepSpec TinySpec() {
  SweepSpec spec;
  spec.crossbar_sizes = {32};
  spec.adc_bits = {8};
  spec.cell_bits = {2};
  spec.spare_tiles = {0};
  spec.noise_sigmas = {0.0, 0.2};
  spec.kernels = {KernelPolicy::kFastNoise};
  return spec;
}

TEST(SweepSpec, PointCountIsAxisProduct) {
  SweepSpec spec = SweepSpec::Smoke();
  EXPECT_EQ(spec.PointCount(), spec.crossbar_sizes.size() *
                                   spec.adc_bits.size() *
                                   spec.cell_bits.size() *
                                   spec.spare_tiles.size() *
                                   spec.noise_sigmas.size() *
                                   spec.kernels.size());
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_TRUE(SweepSpec::Full().Validate().ok());
}

TEST(SweepSpec, EmptyAxisInheritsBaseValue) {
  SweepSpec spec;
  spec.noise_sigmas = {0.05, 0.1};  // every other axis stays at base
  const dpe::DpeParams base = dpe::DpeParams::Isaac();
  auto points = ExpandGrid(spec, base);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 2u);
  EXPECT_EQ((*points)[0].crossbar_size, base.array.rows);
  EXPECT_EQ((*points)[0].adc_bits, base.array.adc.bits);
  EXPECT_EQ((*points)[0].cell_bits, base.array.cell.cell_bits);
  EXPECT_EQ((*points)[0].spare_tiles, base.fault_tolerance.spare_tiles);
  EXPECT_DOUBLE_EQ((*points)[0].noise_sigma, 0.05);
  EXPECT_DOUBLE_EQ((*points)[1].noise_sigma, 0.1);
}

TEST(SweepSpec, ExpandGridIsCanonicalRowMajor) {
  SweepSpec spec;
  spec.crossbar_sizes = {32, 64};
  spec.noise_sigmas = {0.0, 0.1, 0.2};
  auto points = ExpandGrid(spec, dpe::DpeParams::Isaac());
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 6u);
  // crossbar_sizes outermost, noise_sigmas inner: index = size_idx*3 + sigma.
  for (std::size_t i = 0; i < points->size(); ++i) {
    EXPECT_EQ((*points)[i].index, i);
    EXPECT_EQ((*points)[i].crossbar_size, spec.crossbar_sizes[i / 3]);
    EXPECT_DOUBLE_EQ((*points)[i].noise_sigma, spec.noise_sigmas[i % 3]);
  }
}

TEST(SweepSpec, ToDpeParamsOverlaysPointAxes) {
  DesignPoint point;
  point.crossbar_size = 64;
  point.adc_bits = 6;
  point.cell_bits = 4;
  point.spare_tiles = 2;
  point.noise_sigma = 0.05;
  point.kernel = KernelPolicy::kFastNoise;
  const dpe::DpeParams p = point.ToDpeParams(dpe::DpeParams::Isaac());
  EXPECT_EQ(p.array.rows, 64u);
  EXPECT_EQ(p.array.cols, 64u);
  EXPECT_EQ(p.array.columns_per_adc, 64u);
  EXPECT_EQ(p.array.adc.bits, 6);
  EXPECT_EQ(p.array.cell.cell_bits, 4);
  EXPECT_DOUBLE_EQ(p.array.cell.read_noise_sigma, 0.05);
  EXPECT_EQ(p.array.kernel, KernelPolicy::kFastNoise);
  EXPECT_TRUE(p.fault_tolerance.enabled);
  EXPECT_EQ(p.fault_tolerance.spare_tiles, 2u);
  EXPECT_EQ(p.worker_threads, 1u);  // sweep parallelism is across points
  EXPECT_EQ(point.Label(), "xb64_adc6_cell4_sp2_sg0.050_fast-noise");
}

TEST(SweepSpec, ValidateRejectsBadAxes) {
  SweepSpec bad = TinySpec();
  bad.crossbar_sizes = {0};
  EXPECT_FALSE(bad.Validate().ok());
  bad = TinySpec();
  bad.adc_bits = {17};
  EXPECT_FALSE(bad.Validate().ok());
  bad = TinySpec();
  bad.noise_sigmas = {-0.1};
  EXPECT_FALSE(bad.Validate().ok());
  // Regression inputs from SweepSpecFuzz: each was accepted here and then
  // refused by ExpandGrid (or labelled "unknown").
  bad = TinySpec();
  bad.noise_sigmas = {std::nan("")};
  EXPECT_FALSE(bad.Validate().ok());
  bad = TinySpec();
  bad.spare_tiles = {4097};
  EXPECT_FALSE(bad.Validate().ok());
  bad = TinySpec();
  bad.kernels = {static_cast<KernelPolicy>(3)};
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(Pareto, DominanceSemantics) {
  const Objectives a{0.9, 100.0, 50.0, 1.0};
  Objectives b = a;
  EXPECT_FALSE(Dominates(a, b));  // ties dominate in neither direction
  EXPECT_FALSE(Dominates(b, a));
  b.latency_ns = 120.0;  // strictly worse on one objective
  EXPECT_TRUE(Dominates(a, b));
  EXPECT_FALSE(Dominates(b, a));
  b.accuracy = 0.95;  // ...but better on another: incomparable
  EXPECT_FALSE(Dominates(a, b));
  EXPECT_FALSE(Dominates(b, a));
}

TEST(Pareto, DuplicatePointsAllStayOnFront) {
  const Objectives p{0.5, 10.0, 10.0, 1.0};
  const std::vector<Objectives> points = {p, p, {0.4, 20.0, 20.0, 2.0}};
  const std::vector<std::size_t> front = ParetoFrontIndices(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(Pareto, FrontMatchesBruteForceNonDominance) {
  // Property, over seeded random rounds: the emitted front is exactly the
  // set of points no other point dominates — nothing dominated is emitted,
  // and everything excluded has a dominator.
  for (std::uint64_t round = 0; round < 24; ++round) {
    Rng round_rng(DeriveSeed(0xDA7A, round));
    const std::size_t n = 1 + round_rng.NextBounded(40);
    std::vector<Objectives> points(n);
    for (Objectives& p : points) {
      // Coarse lattice values force plenty of ties and duplicates.
      p.accuracy = 0.25 * static_cast<double>(round_rng.NextBounded(5));
      p.latency_ns = 10.0 * static_cast<double>(round_rng.NextBounded(4));
      p.energy_pj = 5.0 * static_cast<double>(round_rng.NextBounded(4));
      p.area_mm2 = static_cast<double>(round_rng.NextBounded(3));
    }
    const std::vector<std::size_t> front = ParetoFrontIndices(points);
    std::vector<bool> on_front(n, false);
    for (std::size_t idx : front) on_front[idx] = true;
    for (std::size_t i = 0; i < n; ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i && Dominates(points[j], points[i])) dominated = true;
      }
      EXPECT_EQ(on_front[i], !dominated)
          << "round " << round << " point " << i;
    }
    // Ascending, unique indices.
    for (std::size_t k = 1; k < front.size(); ++k) {
      EXPECT_LT(front[k - 1], front[k]);
    }
  }
}

TEST(Artifact, GoldenJsonIsByteStable) {
  // Hand-built artifact with pinned values: the serialized bytes are the
  // contract the replay_dse gate diffs, so drift must fail here first.
  SweepArtifact artifact;
  artifact.mode = "smoke";
  artifact.seed = 7;
  artifact.fault_cells = 2;
  artifact.spec = TinySpec();
  artifact.workload = WorkloadParams{};
  artifact.network_name = "golden-net";

  PointResult a;
  a.point.index = 0;
  a.point.crossbar_size = 32;
  a.point.adc_bits = 8;
  a.point.cell_bits = 2;
  a.point.spare_tiles = 0;
  a.point.noise_sigma = 0.0;
  a.point.kernel = KernelPolicy::kFastNoise;
  a.objectives = {0.75, 500.0, 1234.5, 0.125};
  a.noise_self_agreement = 1.0;
  a.arrays_used = 32;
  a.array_area_um2 = 4000.0;
  PointResult b = a;
  b.point.index = 1;
  b.point.noise_sigma = 0.2;
  b.objectives = {0.5, 500.0, 1234.5, 0.125};
  b.noise_self_agreement = 0.625;
  b.faults_detected = 2;
  b.faults_degraded = 1;
  artifact.results = {a, b};
  artifact.pareto_indices = {0};

  const std::string expected =
      "{\n"
      "  \"bench\": \"dse_sweep\",\n"
      "  \"mode\": \"smoke\",\n"
      "  \"seed\": 7,\n"
      "  \"fault_cells\": 2,\n"
      "  \"workload\": {\n"
      "    \"network\": \"golden-net\",\n"
      "    \"widths\": [32, 48, 6],\n"
      "    \"eval_samples\": 30,\n"
      "    \"app_class\": \"neural-networks\",\n"
      "    \"paper_cim_suitability\": \"high\",\n"
      "    \"cim_suitability_score\": 1.5000\n"
      "  },\n"
      "  \"spec\": {\n"
      "    \"crossbar_sizes\": [32],\n"
      "    \"adc_bits\": [8],\n"
      "    \"cell_bits\": [2],\n"
      "    \"spare_tiles\": [0],\n"
      "    \"noise_sigmas\": [0.000, 0.200],\n"
      "    \"kernels\": [\"fast-noise\"]\n"
      "  },\n"
      "  \"point_count\": 2,\n"
      "  \"points\": [\n"
      "    {\"index\": 0, \"label\": \"xb32_adc8_cell2_sp0_sg0.000_"
      "fast-noise\", \"crossbar_size\": 32, \"adc_bits\": 8, "
      "\"cell_bits\": 2, \"spare_tiles\": 0, \"noise_sigma\": 0.000, "
      "\"kernel\": \"fast-noise\", \"accuracy\": 0.750000, "
      "\"noise_self_agreement\": 1.000000, \"latency_ns\": 500.000, "
      "\"energy_pj\": 1234.500, \"area_mm2\": 0.125000, \"arrays\": 32, "
      "\"array_area_um2\": 4000.000, \"faults_detected\": 0, "
      "\"faults_degraded\": 0, \"on_frontier\": true},\n"
      "    {\"index\": 1, \"label\": \"xb32_adc8_cell2_sp0_sg0.200_"
      "fast-noise\", \"crossbar_size\": 32, \"adc_bits\": 8, "
      "\"cell_bits\": 2, \"spare_tiles\": 0, \"noise_sigma\": 0.200, "
      "\"kernel\": \"fast-noise\", \"accuracy\": 0.500000, "
      "\"noise_self_agreement\": 0.625000, \"latency_ns\": 500.000, "
      "\"energy_pj\": 1234.500, \"area_mm2\": 0.125000, \"arrays\": 32, "
      "\"array_area_um2\": 4000.000, \"faults_detected\": 2, "
      "\"faults_degraded\": 1, \"on_frontier\": false}\n"
      "  ],\n"
      "  \"pareto_front_size\": 1,\n"
      "  \"pareto_front\": [0]\n"
      "}\n";
  EXPECT_EQ(WriteSweepJson(artifact), expected);
}

// Validate only: an out-of-range count must never reach a thread pool.
TEST(SweepDriver, WorkerThreadsBounded) {
  DriverParams p;
  for (const std::size_t threads : {std::size_t{0}, kMaxWorkerThreads}) {
    p.worker_threads = threads;
    EXPECT_TRUE(p.Validate().ok()) << threads;
  }
  for (const std::size_t threads :
       {kMaxWorkerThreads + 1, std::size_t{1} << 40, ~std::size_t{0}}) {
    p.worker_threads = threads;
    EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << threads;
  }
}

TEST(SweepDriver, ResultsAreInGridOrderWithSaneObjectives) {
  DriverParams params;
  params.seed = 0x5EED;
  params.worker_threads = 1;
  auto driver = SweepDriver::Create(params);
  ASSERT_TRUE(driver.ok());
  const SweepSpec spec = TinySpec();
  auto results = (*driver)->Run(spec);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), spec.PointCount());
  for (std::size_t i = 0; i < results->size(); ++i) {
    const PointResult& r = (*results)[i];
    EXPECT_EQ(r.point.index, i);
    EXPECT_GE(r.objectives.accuracy, 0.0);
    EXPECT_LE(r.objectives.accuracy, 1.0);
    EXPECT_GT(r.objectives.latency_ns, 0.0);
    EXPECT_GT(r.objectives.energy_pj, 0.0);
    EXPECT_GT(r.objectives.area_mm2, 0.0);
    EXPECT_GT(r.arrays_used, 0u);
  }
  // The zero-sigma point agrees with its own noise-free twin exactly.
  EXPECT_DOUBLE_EQ((*results)[0].noise_self_agreement, 1.0);
}

TEST(SweepDriver, ArtifactIsByteIdenticalAtAnyThreadCount) {
  const SweepSpec spec = TinySpec();
  std::vector<std::string> jsons;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    DriverParams params;
    params.seed = 0x5EED;
    params.fault_cells = 3;
    params.worker_threads = threads;
    auto driver = SweepDriver::Create(params);
    ASSERT_TRUE(driver.ok());
    auto results = (*driver)->Run(spec);
    ASSERT_TRUE(results.ok());
    jsons.push_back(WriteSweepJson(
        MakeArtifact("smoke", spec, **driver, *std::move(results))));
  }
  EXPECT_EQ(jsons[0], jsons[1]);
}


// --- SweepSpec boundary-value fuzz ---------------------------------------------
//
// Every axis takes boundary_values.h values (a one-entry axis on a
// one-point spec), one axis at a time and in seeded pairs and triples.
// SweepSpec::Validate must refuse every single-axis value whose point
// ExpandGrid refuses on a valid base, and a spec ExpandGrid accepts must
// evaluate end to end: both Creates (the point and its noise-free twin),
// the eval inferences, and finite objectives. Points above 64x64 are
// counted but not evaluated, so no case allocates much; the driver runs
// serially on a short eval set.

using SpecValue = fuzz::FuzzValue<SweepSpec>;
using SpecField = std::vector<SpecValue>;

SweepSpec OnePointSpec() {
  SweepSpec spec;
  spec.crossbar_sizes = {16};
  spec.adc_bits = {8};
  spec.cell_bits = {2};
  spec.spare_tiles = {0};
  spec.noise_sigmas = {0.05};
  spec.kernels = {KernelPolicy::kFastNoise};
  return spec;
}

std::vector<SpecField> SpecFields() {
  std::vector<SpecField> fields = {
      CIM_FIELD_VALUES(SweepSpec, crossbar_sizes[0], 1, 2, 64, 4096),
      CIM_FIELD_VALUES(SweepSpec, adc_bits[0], 1, 16),
      CIM_FIELD_VALUES(SweepSpec, cell_bits[0], 1, 8),
      CIM_FIELD_VALUES(SweepSpec, spare_tiles[0], 1, 4096),
      CIM_FIELD_VALUES(SweepSpec, noise_sigmas[0], 0.0, 1.0),
  };
  SpecField kernels;
  for (const int k : {0, 1, 2, 3, 255}) {
    kernels.push_back({"kernels[0]=" + std::to_string(k), [k](SweepSpec& s) {
                         s.kernels[0] = static_cast<KernelPolicy>(k);
                       }});
  }
  fields.push_back(std::move(kernels));
  return fields;
}

struct SpecTally {
  std::size_t rejected = 0;
  std::size_t ran = 0;
  std::size_t too_wide = 0;  // accepted, wider than 64x64, not evaluated
};

const SweepDriver& FuzzDriver() {
  static const std::unique_ptr<SweepDriver> driver = [] {
    DriverParams params;
    params.worker_threads = 1;
    params.fault_cells = 2;  // spares then have something to recover
    params.workload.eval_samples = 4;
    auto made = SweepDriver::Create(params);
    CIM_CHECK(made.ok());
    return std::move(made.value());
  }();
  return *driver;
}

void ExpectAcceptedSpecRuns(const SweepSpec& spec, const std::string& what,
                            SpecTally& tally) {
  const SweepDriver& driver = FuzzDriver();
  auto points = ExpandGrid(spec, driver.params().base);
  if (!points.ok()) {
    ++tally.rejected;
    return;
  }
  ASSERT_TRUE(spec.Validate().ok()) << what;
  for (const DesignPoint& point : *points) {
    if (point.crossbar_size > 64) {
      ++tally.too_wide;
      return;
    }
  }
  ++tally.ran;
  auto results = driver.Run(spec);
  ASSERT_TRUE(results.ok()) << what << ": " << results.status().message();
  ASSERT_EQ(results->size(), points->size()) << what;
  for (const PointResult& r : *results) {
    EXPECT_TRUE(std::isfinite(r.objectives.accuracy) &&
                std::isfinite(r.objectives.latency_ns) &&
                std::isfinite(r.objectives.energy_pj) &&
                std::isfinite(r.objectives.area_mm2) &&
                std::isfinite(r.noise_self_agreement))
        << what;
    EXPECT_GE(r.objectives.accuracy, 0.0) << what;
    EXPECT_LE(r.objectives.accuracy, 1.0) << what;
    EXPECT_GT(r.objectives.latency_ns, 0.0) << what;
    EXPECT_GT(r.objectives.energy_pj, 0.0) << what;
    EXPECT_GT(r.objectives.area_mm2, 0.0) << what;
  }
}

TEST(SweepSpecFuzz, EveryAcceptedSingleAxisBoundaryRuns) {
  SpecTally tally;
  for (const SpecField& field : SpecFields()) {
    for (const SpecValue& value : field) {
      SweepSpec spec = OnePointSpec();
      value.apply(spec);
      // On a valid base and an otherwise valid one-point spec, only the
      // fuzzed axis can make ExpandGrid refuse, so Validate must refuse
      // exactly those values.
      EXPECT_EQ(spec.Validate().ok(),
                ExpandGrid(spec, FuzzDriver().params().base).ok())
          << value.label;
      ExpectAcceptedSpecRuns(spec, value.label, tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.ran, 0u);
  EXPECT_GT(tally.too_wide, 0u);  // crossbar size 4096 is accepted
}

// Seeded pairs and triples across axes, for holes that need two at once
// (spare tiles, and so a guard column, on a one-column array).
TEST(SweepSpecFuzz, EveryAcceptedSeededCombinationRuns) {
  const std::vector<SpecField> fields = SpecFields();
  Rng rng(0xD5E);
  SpecTally tally;
  for (int trial = 0; trial < 300; ++trial) {
    SweepSpec spec = OnePointSpec();
    std::string what = "trial " + std::to_string(trial) + ":";
    const std::uint64_t mutations = 2 + rng.NextBounded(2);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const SpecField& field = fields[rng.NextBounded(fields.size())];
      const SpecValue& value = field[rng.NextBounded(field.size())];
      value.apply(spec);
      what += " " + value.label;
    }
    ExpectAcceptedSpecRuns(spec, what, tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.ran, 0u);
}

}  // namespace
}  // namespace cim::dse
