// Tests for the DPE: analytical model, behavioural accelerator, functional
// accuracy against the float golden model, and cross-validation of the two
// cost models.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dpe/accelerator.h"
#include "dpe/analytical.h"
#include "dpe/scaling.h"
#include "nn/network.h"

namespace cim::dpe {
namespace {

DpeParams QuietIsaac() {
  DpeParams p = DpeParams::Isaac();
  p.array.cell.read_noise_sigma = 0.0;
  p.array.cell.write_noise_sigma = 0.0;
  p.array.cell.endurance_cycles = 0;
  p.array.cell.drift_nu = 0.0;
  p.array.ir_drop_alpha = 0.0;
  return p;
}

nn::Network SmallMlp(Rng& rng) {
  return nn::BuildMlp("small", {16, 24, 8}, rng, /*scale=*/0.3);
}

TEST(DpeParamsTest, IsaacDefaultsValidate) {
  EXPECT_TRUE(DpeParams::Isaac().Validate().ok());
  EXPECT_EQ(DpeParams::Isaac().slices(), 4);  // 7 magnitude bits / 2
}

// Both values are divisors downstream (conv MVM waves, board-crossing
// time), so the models must refuse them at their entry points. Only the
// returned status is checked: nothing here runs an inference.
TEST(DpeParamsTest, RejectsZeroConvReplicationAndNonPositiveBoardLink) {
  Rng rng(19);
  const nn::Network cnn = nn::BuildCnn("tiny", 1, 8, 8, 4, rng);
  DpeParams zero_replication = QuietIsaac();
  zero_replication.conv_replication = 0;
  EXPECT_EQ(zero_replication.Validate().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(DpeAccelerator::Create(zero_replication, cnn, Rng(20))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);

  const nn::Network mlp = nn::BuildMlp("m", {512, 1024, 512, 128}, rng);
  for (const double gbps : {0.0, -25.0}) {
    DpeParams link = QuietIsaac();
    link.arrays_per_board = 64;  // force the network across boards
    link.board_link_bandwidth_gbps = gbps;
    EXPECT_EQ(link.Validate().code(), ErrorCode::kInvalidArgument) << gbps;
    EXPECT_EQ(MultiBoardModel(link).Evaluate(mlp, 16, 0.0, false)
                  .status()
                  .code(),
              ErrorCode::kInvalidArgument)
        << gbps;
  }
}

// What the boundary fuzz below found: configurations Validate accepted but
// DpeAccelerator::Create refused (engine precision and DAC limits, a guard
// column with no spare column) or could not finish (spare ids past 32 bits
// allocate until bad_alloc).
TEST(DpeParamsTest, RejectsWhatTheAcceleratorCannotRun) {
  Rng rng(21);
  const nn::Network net = SmallMlp(rng);
  const std::vector<std::pair<const char*, void (*)(DpeParams&)>> cases = {
      {"weight_bits 17", [](DpeParams& p) { p.weight_bits = 17; }},
      {"input_bits 17", [](DpeParams& p) { p.input_bits = 17; }},
      {"2-bit DAC", [](DpeParams& p) { p.array.dac.bits = 2; }},
      {"guard column on a 1-column array",
       [](DpeParams& p) {
         p.array.cols = 1;
         p.fault_tolerance.enabled = true;
       }},
      {"4097 spare tiles",
       [](DpeParams& p) {
         p.fault_tolerance.enabled = true;
         p.fault_tolerance.spare_tiles = 4097;
       }},
      {"activation energy NaN",
       [](DpeParams& p) {
         p.activation_energy_pj = std::numeric_limits<double>::quiet_NaN();
       }},
      {"board link latency inf",
       [](DpeParams& p) {
         p.board_link_latency_ns = std::numeric_limits<double>::infinity();
       }},
      {"aging warn rate NaN",
       [](DpeParams& p) {
         p.fault_tolerance.aging.verify_failure_warn_rate =
             std::numeric_limits<double>::quiet_NaN();
       }},
  };
  for (const auto& [name, mutate] : cases) {
    DpeParams p = QuietIsaac();
    mutate(p);
    EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << name;
    EXPECT_EQ(DpeAccelerator::Create(p, net, Rng(22)).status().code(),
              ErrorCode::kInvalidArgument)
        << name;
  }
}

TEST(DpeParamsTest, CycleCostsPositiveAndAdcDominated) {
  const DpeParams p = DpeParams::Isaac();
  EXPECT_GT(p.array.CycleLatencyNs(p.array.cols), 0.0);
  // At ISAAC geometry the shared ADC dominates cycle latency.
  EXPECT_GT(128.0 * p.array.adc.conversion_latency().ns,
            0.5 * p.array.CycleLatencyNs(p.array.cols));
  EXPECT_GT(p.CycleEnergyPj(128), p.CycleEnergyPj(1));
}

TEST(AnalyticalModelTest, MapsDenseLayersToTiles) {
  AnalyticalDpeModel model(QuietIsaac());
  Rng rng(1);
  const nn::Network net = nn::BuildMlp("m", {300, 200, 10}, rng);
  auto mappings = model.MapNetwork(net);
  ASSERT_TRUE(mappings.ok());
  ASSERT_EQ(mappings->size(), 2u);
  // 300 inputs over 128-row arrays -> 3 row tiles; 200 outputs -> 2 col
  // tiles; x2 planes x4 slices.
  EXPECT_EQ((*mappings)[0].row_tiles, 3u);
  EXPECT_EQ((*mappings)[0].col_tiles, 2u);
  EXPECT_EQ((*mappings)[0].arrays, 3u * 2 * 2 * 4);
  EXPECT_EQ((*mappings)[1].mvm_invocations, 1u);
}

TEST(AnalyticalModelTest, ConvMappingCountsPixels) {
  AnalyticalDpeModel model(QuietIsaac());
  Rng rng(2);
  const nn::Network net = nn::BuildCnn("c", 1, 28, 28, 10, rng);
  auto mappings = model.MapNetwork(net);
  ASSERT_TRUE(mappings.ok());
  EXPECT_EQ((*mappings)[0].kind, "conv");
  EXPECT_EQ((*mappings)[0].mvm_invocations, 28u * 28);
}

TEST(AnalyticalModelTest, EstimateScalesWithNetworkSize) {
  AnalyticalDpeModel model(QuietIsaac());
  Rng rng(3);
  auto small = model.EstimateInference(nn::BuildMlp("s", {64, 64}, rng));
  auto large =
      model.EstimateInference(nn::BuildMlp("l", {1024, 2048, 1024}, rng));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->energy_pj, small->energy_pj);
  EXPECT_GT(large->arrays_used, small->arrays_used);
  EXPECT_GT(large->weight_bytes_touched, small->weight_bytes_touched);
}

TEST(AnalyticalModelTest, ProgrammingIsTheSlowPath) {
  AnalyticalDpeModel model(QuietIsaac());
  Rng rng(4);
  auto est = model.EstimateInference(nn::BuildMlp("m", {256, 256, 64}, rng));
  ASSERT_TRUE(est.ok());
  // Weight programming costs orders of magnitude more latency than one
  // inference — the asymmetry §VI highlights.
  EXPECT_GT(est->program_latency_ns, 3.0 * est->latency_ns);
}

TEST(AcceleratorTest, MatchesGoldenModelOnMlp) {
  Rng rng(5);
  const nn::Network net = SmallMlp(rng);
  auto acc = DpeAccelerator::Create(QuietIsaac(), net, Rng(6));
  ASSERT_TRUE(acc.ok());

  nn::Tensor input({16});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto golden = nn::Forward(net, input);
  auto analog = (*acc)->Infer(input);
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(analog.ok());
  ASSERT_EQ(analog->output.size(), golden->size());
  for (std::size_t i = 0; i < golden->size(); ++i) {
    // 8-bit weights/activations over small layers: coarse but close.
    EXPECT_NEAR(analog->output[i], (*golden)[i], 0.25)
        << "output " << i;
  }
}

TEST(AcceleratorTest, MatchesGoldenModelOnTinyCnn) {
  Rng rng(7);
  const nn::Network net = nn::BuildCnn("tiny", 1, 8, 8, 4, rng);
  auto acc = DpeAccelerator::Create(QuietIsaac(), net, Rng(8));
  ASSERT_TRUE(acc.ok());
  nn::Tensor input({1, 8, 8});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto golden = nn::Forward(net, input);
  auto analog = (*acc)->Infer(input);
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(analog.ok());
  double max_err = 0.0;
  for (std::size_t i = 0; i < golden->size(); ++i) {
    max_err =
        std::max(max_err, std::fabs(analog->output[i] - (*golden)[i]));
  }
  EXPECT_LT(max_err, 0.5);
}

TEST(AcceleratorTest, CostReportedPerInference) {
  Rng rng(9);
  const nn::Network net = SmallMlp(rng);
  auto acc = DpeAccelerator::Create(QuietIsaac(), net, Rng(10));
  ASSERT_TRUE(acc.ok());
  EXPECT_GT((*acc)->program_cost().latency_ns, 0.0);
  nn::Tensor input({16});
  auto result = (*acc)->Infer(input);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->cost.energy_pj, 0.0);
  EXPECT_GT(result->cost.latency_ns, 0.0);
  // Programming is far slower than inference.
  EXPECT_GT((*acc)->program_cost().latency_ns, result->cost.latency_ns);
}

TEST(AcceleratorTest, ShiftAddEnergyReachesBehaviouralEngine) {
  // DpeParams::shift_add_energy_pj is the one shift-add energy for both
  // cost models: raising it costs the behavioural accelerator more energy
  // per inference and changes no output bit or latency.
  Rng rng(13);
  const nn::Network net = SmallMlp(rng);
  nn::Tensor input({16});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);

  const DpeParams base = QuietIsaac();
  DpeParams raised = base;
  raised.shift_add_energy_pj = 10.0 * base.shift_add_energy_pj;
  auto base_acc = DpeAccelerator::Create(base, net, Rng(14));
  auto raised_acc = DpeAccelerator::Create(raised, net, Rng(14));
  ASSERT_TRUE(base_acc.ok());
  ASSERT_TRUE(raised_acc.ok());
  auto base_result = (*base_acc)->Infer(input);
  auto raised_result = (*raised_acc)->Infer(input);
  ASSERT_TRUE(base_result.ok());
  ASSERT_TRUE(raised_result.ok());

  EXPECT_GT(raised_result->cost.energy_pj, base_result->cost.energy_pj);
  EXPECT_EQ(raised_result->cost.latency_ns, base_result->cost.latency_ns);
  EXPECT_EQ(raised_result->output.vec(), base_result->output.vec());
}

TEST(AcceleratorTest, AnalyticalModelTracksBehaviouralCosts) {
  // The analytical estimate and the behavioural accelerator must agree
  // within a factor of ~2 on both latency and energy (same constants,
  // different evaluation paths).
  Rng rng(11);
  const nn::Network net = nn::BuildMlp("val", {100, 150, 20}, rng, 0.3);
  const DpeParams params = QuietIsaac();
  auto acc = DpeAccelerator::Create(params, net, Rng(12));
  ASSERT_TRUE(acc.ok());
  AnalyticalDpeModel model(params);
  auto est = model.EstimateInference(net);
  ASSERT_TRUE(est.ok());

  nn::Tensor input({100});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto result = (*acc)->Infer(input);
  ASSERT_TRUE(result.ok());
  const CostReport& behavioural = result->cost;

  EXPECT_LT(std::fabs(std::log2(est->latency_ns /
                                behavioural.latency_ns)),
            1.0)
      << "analytical " << est->latency_ns << " vs behavioural "
      << behavioural.latency_ns;
  EXPECT_LT(std::fabs(std::log2(est->energy_pj / behavioural.energy_pj)),
            1.0)
      << "analytical " << est->energy_pj << " vs behavioural "
      << behavioural.energy_pj;
  EXPECT_EQ(est->arrays_used, (*acc)->arrays_used());
}

TEST(AcceleratorTest, BehaviouralAndAnalyticalAgreeOnArrayCounts) {
  // Both models tile every MVM layer over rows x cols arrays with 2 planes
  // x slices arrays per engine. The analytical model also replicates conv
  // layers conv_replication times; the behavioural one programs each conv
  // matrix once. Fault tolerance stays off: its guard column narrows the
  // behavioural tiles to cols - 1 (see ROADMAP items 1 and 7).
  DpeParams params = DpeParams::Isaac();
  params.fault_tolerance.enabled = false;
  params.worker_threads = 1;
  const AnalyticalDpeModel model(params);
  Rng rng(21);
  const std::vector<std::pair<nn::Network, std::size_t>> cases = {
      {nn::BuildMlp("mlp", {192, 256, 128, 32}, rng), 56},
      {nn::BuildMlp("small", {16, 24, 8}, rng), 16},
      {nn::BuildCnn("cnn", 1, 12, 12, 10, rng), 40}};
  for (const auto& [net, expected] : cases) {
    auto mappings = model.MapNetwork(net);
    ASSERT_TRUE(mappings.ok()) << net.name;
    std::size_t analytical = 0;
    for (const LayerMapping& m : *mappings) {
      analytical +=
          m.kind == "conv" ? m.arrays / params.conv_replication : m.arrays;
    }
    auto acc = DpeAccelerator::Create(params, net, Rng(22));
    ASSERT_TRUE(acc.ok()) << net.name;
    EXPECT_EQ((*acc)->arrays_used(), analytical) << net.name;
    EXPECT_EQ(analytical, expected) << net.name;
  }
}

TEST(AcceleratorTest, FaultInjectionPerturbsOutput) {
  Rng rng(13);
  const nn::Network net = SmallMlp(rng);
  auto clean = DpeAccelerator::Create(QuietIsaac(), net, Rng(14));
  auto faulty = DpeAccelerator::Create(QuietIsaac(), net, Rng(14));
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(
      (*faulty)->InjectFault(0, 0, 0, device::CellFault::kStuckOn).ok());
  nn::Tensor input({16});
  input.vec().assign(16, 1.0);
  auto clean_out = (*clean)->Infer(input);
  auto faulty_out = (*faulty)->Infer(input);
  ASSERT_TRUE(clean_out.ok());
  ASSERT_TRUE(faulty_out.ok());
  double diff = 0.0;
  for (std::size_t i = 0; i < clean_out->output.size(); ++i) {
    diff += std::fabs(clean_out->output[i] - faulty_out->output[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(ScalingTest, SingleBoardFitsSmallNetwork) {
  MultiBoardModel model(QuietIsaac());
  Rng rng(15);
  const nn::Network net = nn::BuildMlp("m", {256, 256, 64}, rng);
  auto report = model.Evaluate(net, 1, 0.0, false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->boards_needed, 1u);
  EXPECT_EQ(report->replicas, 1u);
  EXPECT_DOUBLE_EQ(report->interboard_bytes, 0.0);
  EXPECT_GT(report->throughput_per_sec, 0.0);
}

TEST(ScalingTest, ReplicationScalesThroughputLinearly) {
  MultiBoardModel model(QuietIsaac());
  Rng rng(16);
  const nn::Network net = nn::BuildMlp("m", {256, 256, 64}, rng);
  auto one = model.Evaluate(net, 1, 0.0, false);
  auto eight = model.Evaluate(net, 8, 0.0, false);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_NEAR(eight->throughput_per_sec / one->throughput_per_sec, 8.0,
              0.01);
}

TEST(ScalingTest, NetworkTooLargeForBoardsRejected) {
  DpeParams p = QuietIsaac();
  p.arrays_per_board = 4;  // tiny board
  MultiBoardModel model(p);
  Rng rng(17);
  const nn::Network net = nn::BuildMlp("m", {512, 512, 512}, rng);
  EXPECT_EQ(model.Evaluate(net, 1, 0.0, false).status().code(),
            ErrorCode::kCapacityExceeded);
}

TEST(ScalingTest, MultiBoardPaysInterboardTraffic) {
  DpeParams p = QuietIsaac();
  p.arrays_per_board = 64;  // force the network across boards
  MultiBoardModel model(p);
  Rng rng(18);
  const nn::Network net = nn::BuildMlp("m", {512, 1024, 512, 128}, rng);
  auto report = model.Evaluate(net, 16, 0.0, false);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->boards_needed, 1u);
  EXPECT_GT(report->interboard_bytes, 0.0);
  // Crossing boards adds latency versus the pure estimate.
  AnalyticalDpeModel single(p);
  auto est = single.EstimateInference(net);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(report->single_latency_ns, est->latency_ns);
}

TEST(ScalingTest, WriteHidingTradesArraysForThroughput) {
  MultiBoardModel model(QuietIsaac());
  Rng rng(19);
  const nn::Network net = nn::BuildMlp("m", {256, 256, 64}, rng);
  const double updates_per_sec = 20000.0;  // aggressive online training
  auto exposed = model.Evaluate(net, 4, updates_per_sec, false);
  auto hidden = model.Evaluate(net, 4, updates_per_sec, true);
  ASSERT_TRUE(exposed.ok());
  ASSERT_TRUE(hidden.ok());
  EXPECT_GT(exposed->update_stall_fraction, 0.0);
  EXPECT_DOUBLE_EQ(hidden->update_stall_fraction, 0.0);
  // Hiding needs shadow arrays...
  EXPECT_GT(hidden->arrays_total, exposed->arrays_total);
  // ...but delivers more effective throughput under heavy updates.
  EXPECT_GT(hidden->effective_throughput_per_sec,
            exposed->effective_throughput_per_sec);
}

// --- Validate boundary-value fuzz -------------------------------------------
//
// Every numeric CrossbarParams / DpeParams field (cell, ADC, DAC and fault
// tolerance included) takes 0, -1, NaN and +/-inf (an integer field: 0, -1
// and its type's min and max), and each of its bounds with the bound's
// neighbours (+/-1, and +/-1 ulp for a real). A configuration Validate
// accepts must build an accelerator and run one inference with finite
// outputs and costs, and the analytical model must price it finitely.
// Arrays run at most 64x64 and worker_threads stays 1, so no case
// allocates much or starts a thread; a wider accepted array is counted but
// not built.

struct FuzzValue {
  std::string label;  // "<field>=<value>"
  std::function<void(DpeParams&)> apply;
};
using FuzzField = std::vector<FuzzValue>;

template <typename T>
std::vector<T> BoundaryValues(std::initializer_list<T> bounds) {
  std::vector<T> values;
  if constexpr (std::is_floating_point_v<T>) {
    constexpr T kInf = std::numeric_limits<T>::infinity();
    values = {0.0, -1.0, std::numeric_limits<T>::quiet_NaN(), kInf, -kInf};
    for (const T b : bounds) {
      values.insert(values.end(), {b, std::nextafter(b, -kInf),
                                   std::nextafter(b, kInf), b - 1, b + 1});
    }
  } else {
    values = {T{0}, static_cast<T>(-1), std::numeric_limits<T>::min(),
              std::numeric_limits<T>::max()};
    for (const T b : bounds) {
      values.insert(values.end(), {b, static_cast<T>(b - 1),
                                   static_cast<T>(b + 1)});
    }
  }
  return values;
}

template <typename T, typename Get>
FuzzField Field(const char* name, Get get, std::initializer_list<T> bounds) {
  FuzzField field;
  std::set<std::string> seen;
  for (const T v : BoundaryValues<T>(bounds)) {
    std::ostringstream label;
    label << name << "=" << std::setprecision(17) << +v;
    if (!seen.insert(label.str()).second) continue;
    field.push_back({label.str(), [get, v](DpeParams& p) { get(p) = v; }});
  }
  return field;
}

#define CIM_FUZZ_FIELD(T, path, ...)                                  \
  Field<T>(#path, [](DpeParams& p) -> T& { return p.path; }, \
           {__VA_ARGS__})

std::vector<FuzzField> FuzzFields() {
  std::vector<FuzzField> fields = {
      CIM_FUZZ_FIELD(std::size_t, array.rows, 1, 4096),
      CIM_FUZZ_FIELD(std::size_t, array.cols, 1, 2, 4096),
      CIM_FUZZ_FIELD(std::size_t, array.columns_per_adc, 1),
      CIM_FUZZ_FIELD(double, array.ir_drop_alpha, 0.0, 1.0),
      CIM_FUZZ_FIELD(int, array.adc.bits, 1, 16),
      CIM_FUZZ_FIELD(int, array.adc.reference_bits, 1, 16),
      CIM_FUZZ_FIELD(double, array.adc.base_latency.ns),
      CIM_FUZZ_FIELD(double, array.adc.base_energy.pj),
      CIM_FUZZ_FIELD(int, array.dac.bits, 1, 16),
      CIM_FUZZ_FIELD(double, array.dac.settle_latency.ns),
      CIM_FUZZ_FIELD(double, array.dac.drive_energy.pj),
      CIM_FUZZ_FIELD(double, array.dac.v_read, 0.0),
      CIM_FUZZ_FIELD(double, array.cell.g_on_siemens, 1.0 / 2e6),
      CIM_FUZZ_FIELD(double, array.cell.g_off_siemens, 0.0, 1.0 / 2e3),
      CIM_FUZZ_FIELD(int, array.cell.cell_bits, 1, 8),
      CIM_FUZZ_FIELD(double, array.cell.read_latency.ns),
      CIM_FUZZ_FIELD(double, array.cell.set_latency.ns),
      CIM_FUZZ_FIELD(double, array.cell.reset_latency.ns),
      CIM_FUZZ_FIELD(double, array.cell.read_energy.pj),
      CIM_FUZZ_FIELD(double, array.cell.write_energy.pj),
      CIM_FUZZ_FIELD(double, array.cell.read_noise_sigma, 0.0),
      CIM_FUZZ_FIELD(double, array.cell.write_tolerance),
      CIM_FUZZ_FIELD(int, array.cell.max_write_iterations, 1, 64),
      CIM_FUZZ_FIELD(double, array.cell.write_noise_sigma, 0.0),
      CIM_FUZZ_FIELD(std::uint64_t, array.cell.endurance_cycles, 1),
      CIM_FUZZ_FIELD(double, array.cell.drift_nu),
      CIM_FUZZ_FIELD(double, array.cell.drift_t0.ns, 0.0),
      CIM_FUZZ_FIELD(int, weight_bits, 2, 16),
      CIM_FUZZ_FIELD(int, input_bits, 1, 16),
      CIM_FUZZ_FIELD(double, buffer_energy_per_byte_pj),
      CIM_FUZZ_FIELD(double, shift_add_energy_pj),
      CIM_FUZZ_FIELD(double, activation_energy_pj),
      CIM_FUZZ_FIELD(double, activation_latency_ns),
      CIM_FUZZ_FIELD(double, htree_energy_per_byte_pj),
      CIM_FUZZ_FIELD(double, static_power_per_array_w),
      CIM_FUZZ_FIELD(std::size_t, conv_replication, 1),
      CIM_FUZZ_FIELD(std::size_t, fault_tolerance.spare_tiles, 4096),
      CIM_FUZZ_FIELD(std::uint64_t, fault_tolerance.aging.endurance_cycles,
                     1),
      CIM_FUZZ_FIELD(double, fault_tolerance.aging.degraded_wear_fraction,
                     0.0, 0.95),
      CIM_FUZZ_FIELD(double, fault_tolerance.aging.retire_wear_fraction, 0.8,
                     1.0),
      CIM_FUZZ_FIELD(double, fault_tolerance.aging.verify_failure_warn_rate),
      CIM_FUZZ_FIELD(double, fault_tolerance.aging.systemic_fraction),
      CIM_FUZZ_FIELD(std::size_t, arrays_per_board, 1),
      CIM_FUZZ_FIELD(double, board_link_bandwidth_gbps, 0.0),
      CIM_FUZZ_FIELD(double, board_link_latency_ns),
  };
  FuzzField kernels;
  for (const auto kernel :
       {device::KernelPolicy::kReference, device::KernelPolicy::kFastBitExact,
        device::KernelPolicy::kFastNoise}) {
    kernels.push_back(
        {"array.kernel=" + std::to_string(static_cast<int>(kernel)),
         [kernel](DpeParams& p) { p.array.kernel = kernel; }});
  }
  fields.push_back(std::move(kernels));
  FuzzField ft;
  for (const bool enabled : {false, true}) {
    ft.push_back({std::string("fault_tolerance.enabled=") +
                      (enabled ? "1" : "0"),
                  [enabled](DpeParams& p) {
                    p.fault_tolerance.enabled = enabled;
                  }});
  }
  fields.push_back(std::move(ft));
  return fields;
}

#undef CIM_FUZZ_FIELD

bool FiniteCost(const CostReport& cost) {
  return std::isfinite(cost.latency_ns) && std::isfinite(cost.energy_pj) &&
         std::isfinite(cost.bytes_moved);
}

// Counts what one fuzz run did with its configurations.
struct FuzzTally {
  std::size_t rejected = 0;
  std::size_t ran = 0;
  std::size_t too_wide = 0;  // accepted, wider than 64x64, not built
};

// Validate `p`; when accepted, run it end to end and expect success.
void ExpectAcceptedRuns(const DpeParams& p, const std::string& what,
                        FuzzTally& tally) {
  if (!p.Validate().ok()) {
    ++tally.rejected;
    return;
  }
  if (p.array.rows > 64 || p.array.cols > 64) {
    ++tally.too_wide;
    return;
  }
  ++tally.ran;
  Rng rng(23);
  const nn::Network net = nn::BuildMlp("fuzz", {6, 10, 3}, rng, 0.3);
  nn::Tensor input({6});
  for (std::size_t i = 0; i < 6; ++i) {
    input.vec()[i] = 0.15 * static_cast<double>(i + 1);
  }
  auto acc = DpeAccelerator::Create(p, net, Rng(24));
  ASSERT_TRUE(acc.ok()) << what << ": " << acc.status().message();
  auto result = (*acc)->Infer(input);
  ASSERT_TRUE(result.ok()) << what << ": " << result.status().message();
  for (const double y : result->output.vec()) {
    EXPECT_TRUE(std::isfinite(y)) << what;
  }
  EXPECT_TRUE(FiniteCost(result->cost)) << what;
  EXPECT_TRUE(FiniteCost((*acc)->program_cost())) << what;
  auto estimate = AnalyticalDpeModel(p).EstimateInference(net);
  ASSERT_TRUE(estimate.ok()) << what << ": " << estimate.status().message();
  EXPECT_TRUE(std::isfinite(estimate->latency_ns) &&
              std::isfinite(estimate->energy_pj))
      << what;
}

DpeParams FuzzBase(bool fault_tolerance) {
  DpeParams p = DpeParams::Isaac();
  p.array.rows = 16;
  p.array.cols = 16;
  p.array.columns_per_adc = 16;
  p.worker_threads = 1;
  p.fault_tolerance.enabled = fault_tolerance;
  p.fault_tolerance.spare_tiles = fault_tolerance ? 1 : 0;
  return p;
}

// Every field's boundary values, one field at a time, on a base with and
// without fault tolerance (which adds the guard column and spare tiles).
TEST(ParamsFuzzTest, EveryAcceptedSingleFieldBoundaryRuns) {
  FuzzTally tally;
  for (const bool ft : {false, true}) {
    for (const FuzzField& field : FuzzFields()) {
      for (const FuzzValue& value : field) {
        DpeParams p = FuzzBase(ft);
        value.apply(p);
        ExpectAcceptedRuns(p, value.label + (ft ? " (ft)" : ""), tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.ran, 0u);
  EXPECT_GT(tally.too_wide, 0u);  // rows/cols 4096 are accepted
}

// Seeded pairs and triples of boundary values across fields: holes that
// need two fields at once (a guard column on a one-column array, a verify
// loop that never converges at its iteration cap).
TEST(ParamsFuzzTest, EveryAcceptedSeededCombinationRuns) {
  const std::vector<FuzzField> fields = FuzzFields();
  Rng rng(0xF022);
  FuzzTally tally;
  for (int trial = 0; trial < 1000; ++trial) {
    DpeParams p = FuzzBase(rng.Bernoulli(0.5));
    std::string what = "trial " + std::to_string(trial) + ":";
    const std::uint64_t mutations = 2 + rng.NextBounded(2);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const FuzzField& field = fields[rng.NextBounded(fields.size())];
      const FuzzValue& value = field[rng.NextBounded(field.size())];
      value.apply(p);
      what += " " + value.label;
    }
    if (p.fault_tolerance.enabled) what += " (ft)";
    ExpectAcceptedRuns(p, what, tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.ran, 0u);
}

}  // namespace
}  // namespace cim::dpe
