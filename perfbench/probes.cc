#include "probes.h"

#include <utility>

#include "common/contracts.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "crossbar/crossbar.h"
#include "crossbar/mvm_engine.h"
#include "device/noise_model.h"
#include "dpe/params.h"
#include "noc/link_cipher.h"
#include "noc/mesh.h"

namespace perfbench {
namespace {

using cim::Rng;
using cim::device::KernelPolicy;

constexpr std::uint64_t kProbeSeed = 0x9A0BE5;
constexpr int kWindows = 5;
constexpr double kWindowSeconds = 0.04;
constexpr double kNoisySigma = 0.02;  // the default device

// Median over kWindows windows of the per-call time of fn, in seconds.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  fn();  // warm-up
  std::vector<double> per_call;
  for (int w = 0; w < kWindows; ++w) {
    std::uint64_t calls = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = NowSeconds() - start;
    } while (elapsed < kWindowSeconds);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return Median(per_call);
}

// The DPE's 128x128 array (DpeParams::Isaac) with the given device.
cim::crossbar::CrossbarParams ArrayParams(double sigma, KernelPolicy kernel) {
  cim::crossbar::CrossbarParams p = cim::dpe::DpeParams::Isaac().array;
  p.cell.read_noise_sigma = sigma;
  p.kernel = kernel;
  return p;
}

double CycleNsPerCell(double sigma) {
  const auto params = ArrayParams(sigma, KernelPolicy::kFastBitExact);
  auto xbar = cim::crossbar::Crossbar::Create(params, Rng(kProbeSeed));
  CIM_CHECK(xbar.ok());
  Rng level_rng(kProbeSeed + 1);
  std::vector<std::uint64_t> levels(params.rows * params.cols);
  for (auto& l : levels) {
    l = static_cast<std::uint64_t>(level_rng.UniformInt(
        0, static_cast<std::int64_t>(params.cell.levels()) - 1));
  }
  CIM_CHECK(xbar->ProgramLevels(levels).ok());
  const std::vector<std::uint64_t> codes(params.rows, 1);
  Rng noise(kProbeSeed + 2);
  const double s = SecondsPerCall(
      [&] { CIM_CHECK(xbar->Cycle(codes, 0, &noise).ok()); });
  return s * 1e9 / static_cast<double>(params.rows * params.cols);
}

double MvmUs(double sigma, KernelPolicy kernel) {
  const cim::dpe::DpeParams dpe = cim::dpe::DpeParams::Isaac();
  cim::crossbar::MvmEngineParams params;
  params.array = ArrayParams(sigma, kernel);
  params.weight_bits = dpe.weight_bits;
  params.input_bits = dpe.input_bits;
  auto engine = cim::crossbar::MvmEngine::Create(params, 128, 128,
                                                 Rng(kProbeSeed + 3));
  CIM_CHECK(engine.ok());
  Rng rng(kProbeSeed + 4);
  std::vector<double> w(128 * 128);
  for (double& v : w) v = rng.Uniform(-1.0, 1.0);
  CIM_CHECK(engine->ProgramWeights(w).ok());
  std::vector<double> x(128);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  Rng noise(kProbeSeed + 5);
  return SecondsPerCall([&] { CIM_CHECK(engine->Compute(x, &noise).ok()); }) *
         1e6;
}

double FillNsPerFactor() {
  const cim::device::NoiseModel model(kNoisySigma, KernelPolicy::kFastNoise);
  std::vector<double> row(128);
  Rng rng(kProbeSeed + 6);
  return SecondsPerCall(
             [&] { model.FillFactors(rng, row.data(), row.size()); }) *
         1e9 / static_cast<double>(row.size());
}

double CipherNsPerByte(std::size_t bytes) {
  const cim::noc::StreamCipher cipher(0x5ca1ab1edeadbeefULL);
  std::vector<std::uint8_t> buf(bytes, 0x5A);
  std::uint64_t nonce = 0;
  return SecondsPerCall([&] { (void)cipher.Apply(buf, ++nonce); }) * 1e9 /
         static_cast<double>(bytes);
}

double NocNsPerPacket(const NocPattern& pattern) {
  std::size_t packets = 0;
  for (const auto& w : pattern.windows) packets += w.packets.size();
  CIM_CHECK(packets > 0);
  std::vector<double> per_packet;
  for (int rep = 0; rep < 3; ++rep) {
    cim::EventQueue queue;
    cim::noc::MeshParams params;
    params.width = pattern.width;
    params.height = pattern.height;
    auto mesh = cim::noc::MeshNoc::Create(params, &queue);
    CIM_CHECK(mesh.ok());
    std::uint64_t delivered = 0;
    for (std::uint16_t x = 0; x < pattern.width; ++x) {
      for (std::uint16_t y = 0; y < pattern.height; ++y) {
        mesh->SetDeliveryHandler(
            {x, y}, [&delivered](const cim::noc::Delivery&) { ++delivered; });
      }
    }
    auto windows = pattern.windows;  // consumed by injection
    const double start = NowSeconds();
    for (auto& window : windows) {
      if (pattern.owned_bursts) {
        CIM_CHECK(mesh->InjectBurst(std::move(window.packets)).ok());
        queue.Run();
      } else {
        queue.RunUntil(cim::TimeNs(window.at_ns));
        for (cim::noc::Packet& p : window.packets) {
          CIM_CHECK(mesh->Inject(std::move(p)).ok());
        }
      }
    }
    queue.Run();
    const double elapsed = NowSeconds() - start;
    CIM_CHECK(delivered == packets);
    per_packet.push_back(elapsed * 1e9 / static_cast<double>(packets));
  }
  return Median(per_packet);
}

}  // namespace

std::vector<double> AddLayerProbes(const NocPattern* noc,
                                   std::size_t cipher_bytes, MetricMap* out) {
  MetricMap& m = *out;
  m["crossbar.cycle_ns_per_cell.noisy"] = {CycleNsPerCell(kNoisySigma), "ns"};
  m["crossbar.cycle_ns_per_cell.quiet"] = {CycleNsPerCell(0.0), "ns"};
  const std::vector<double> mvm = {
      MvmUs(kNoisySigma, KernelPolicy::kFastBitExact),
      MvmUs(0.0, KernelPolicy::kFastBitExact),
      MvmUs(kNoisySigma, KernelPolicy::kFastNoise)};
  m["crossbar.mvm_us.noisy"] = {mvm[0], "us"};
  m["crossbar.mvm_us.quiet"] = {mvm[1], "us"};
  m["crossbar.mvm_us.fast_noise"] = {mvm[2], "us"};
  m["device.fill_ns_per_factor.fast_noise"] = {FillNsPerFactor(), "ns"};
  m["noc.cipher_ns_per_byte"] = {CipherNsPerByte(cipher_bytes), "ns"};
  if (noc != nullptr) {
    m["noc.host_ns_per_packet"] = {NocNsPerPacket(*noc), "ns"};
  }
  return mvm;
}

}  // namespace perfbench
