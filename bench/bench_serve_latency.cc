// SERVE — tail latency and availability of cim::serve::DpeService.
//
// Every number reported here is *virtual*: arrivals, dispatches and
// completions live on the service's deterministic virtual clock (simulated
// accelerator latencies, not wall time), so two runs at the same seed
// produce byte-identical JSON. The replay_serve ctest exploits that as a
// replay gate.
//
// Four load runs:
//   open-quiet     open-loop Poisson-ish arrivals at a rate the batching
//                  window can coalesce; headline p50/p99/p999.
//   open-overload  the same generator pushed far past the admission
//                  watermark with a tight deadline: measures rejection and
//                  shedding behavior, not latency flattery.
//   closed-quiet   fixed-concurrency closed loop (each response immediately
//                  submits the next request): sustained virtual QPS.
//   open-chaos     FaultInjector-driven stuck-on cluster plus a tile death
//                  against a fault-tolerant accelerator with spares; the
//                  service's retry/backoff and the accelerator's remap must
//                  keep availability >= 99% and recover (the late tail of
//                  the run must be at least as clean as the early faulted
//                  head). Both gates exit(1) on failure.
//
// Flags:
//   --smoke        smaller request counts (CI smoke); gates still run at
//                  full strength because nothing here depends on wall time
//   --json <path>  write the measurements as JSON
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "reliability/fault_injector.h"
#include "serve/service.h"
#include "serve/tenant.h"

namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::dpe::DpeAccelerator;
using cim::dpe::DpeParams;
using cim::reliability::FaultInjector;
using cim::reliability::FaultKind;
using cim::reliability::FaultScenario;
using cim::reliability::FaultSpec;
using cim::serve::DpeService;
using cim::serve::Outcome;
using cim::serve::Response;
using cim::serve::ServeParams;
using cim::serve::ServiceStats;
using cim::serve::SubmitArgs;

constexpr std::uint64_t kSeed = 0x5E12F3;
constexpr std::size_t kInputDim = 16;

cim::nn::Network ServeNet() {
  Rng rng(11);
  return cim::nn::BuildMlp("bench-serve", {kInputDim, 24, 8}, rng, 0.35);
}

cim::nn::Tensor MakeInput(std::uint64_t salt) {
  Rng rng(DeriveSeed(kSeed, salt));
  cim::nn::Tensor t({kInputDim});
  for (auto& v : t.vec()) v = rng.Uniform(0.0, 1.0);
  return t;
}

struct RunConfig {
  std::string name;
  bool closed_loop = false;
  bool chaos = false;
  std::size_t requests = 384;
  double mean_gap_ns = 25e3;   // open loop: mean inter-arrival
  std::size_t burst = 32;      // open loop: submissions between pumps
  std::size_t concurrency = 16;  // closed loop: outstanding requests
  double deadline_ns = cim::serve::kNoDeadline;  // relative to arrival
  std::size_t watermark = 256;
};

struct RunResult {
  RunConfig config;
  ServiceStats stats;
  double makespan_ns = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double sustained_qps = 0.0;
  double availability = 0.0;       // served / admitted
  double degrade_rate = 0.0;       // degraded / served
  double rejection_rate = 0.0;     // rejected / submitted
  double head_clean_fraction = 0.0;  // first half of responses, by order
  double tail_clean_fraction = 0.0;  // second half — recovery evidence
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(pos);
  if (static_cast<double>(index) < pos) ++index;
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

double CleanFraction(const std::vector<Response>& responses,
                     std::size_t begin, std::size_t end) {
  if (begin >= end) return 1.0;
  std::size_t clean = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (responses[i].outcome == Outcome::kOk) ++clean;
  }
  return static_cast<double>(clean) / static_cast<double>(end - begin);
}

// The two faults strike early (element steps 6 and 20) so the run's tail
// demonstrates recovery: the accelerator detects at tile boundaries, the
// service retries with backoff, and the spare-tile remap absorbs the
// damage for every element after it.
FaultScenario ChaosScenario() {
  FaultScenario scenario;
  scenario.seed = 77;
  FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 6;
  cluster.tile = 0;
  cluster.cells = 24;
  cluster.row = 2;
  cluster.col = 3;
  scenario.specs.push_back(cluster);
  FaultSpec death;
  death.kind = FaultKind::kTileDeath;
  death.target = "dpe.layer1";
  death.at_step = 20;
  death.tile = 0;
  scenario.specs.push_back(death);
  return scenario;
}

ServeParams ServiceParams(const RunConfig& config) {
  ServeParams params;
  params.seed = kSeed;
  params.expected_input_elements = kInputDim;
  params.batching.max_batch = 8;
  params.batching.window_ns = 200e3;
  params.admission.watermark = config.watermark;
  params.admission.max_watermark = config.watermark;
  params.retry.max_retries = 3;
  params.sla.enabled = true;
  params.sla.target_latency_ns = 5e6;
  return params;
}

RunResult Execute(const RunConfig& config) {
  DpeParams accel_params = DpeParams::Isaac();
  accel_params.worker_threads = 2;
  if (config.chaos) {
    accel_params.fault_tolerance.enabled = true;
    accel_params.fault_tolerance.spare_tiles = 4;
  }
  auto accelerator =
      DpeAccelerator::Create(accel_params, ServeNet(), Rng(kSeed + 1));
  CIM_CHECK(accelerator.ok());

  FaultInjector injector(ChaosScenario());
  if (config.chaos) {
    CIM_CHECK((*accelerator)->AttachFaultInjector(&injector).ok());
    CIM_CHECK(injector.Arm().ok());
  }

  auto service =
      DpeService::Create(ServiceParams(config), accelerator->get(), nullptr);
  CIM_CHECK(service.ok());
  CIM_CHECK((*service)->AddTenant({.id = 1,
                                   .name = "gold",
                                   .weight = 2.0,
                                   .queue_capacity = 1024}).ok());
  CIM_CHECK((*service)->AddTenant({.id = 2,
                                   .name = "bronze",
                                   .weight = 1.0,
                                   .queue_capacity = 1024}).ok());

  std::vector<Response> responses;
  std::size_t submitted = 0;
  const auto submit_next = [&](double arrival_ns) {
    SubmitArgs args;
    args.tenant = (submitted % 2 == 0) ? 1 : 2;
    args.input = MakeInput(static_cast<std::uint64_t>(submitted));
    args.arrival_ns = arrival_ns;
    args.deadline_ns = config.deadline_ns;
    ++submitted;
    return (*service)->Submit(args);
  };

  if (config.closed_loop) {
    CIM_CHECK((*service)
                  ->SetResponseHandler([&](const Response& response) {
                    responses.push_back(response);
                    if (submitted < config.requests) {
                      // The client issues its next request the instant the
                      // previous response lands.
                      auto next = submit_next(response.completion_ns);
                      CIM_CHECK(next.ok());
                    }
                  })
                  .ok());
    for (std::size_t i = 0; i < config.concurrency; ++i) {
      auto id = submit_next(0.0);
      CIM_CHECK(id.ok());
    }
    while ((*service)->RunUntilIdle() > 0) {
    }
  } else {
    CIM_CHECK((*service)
                  ->SetResponseHandler([&](const Response& response) {
                    responses.push_back(response);
                  })
                  .ok());
    double arrival = 0.0;
    Rng gap_rng(DeriveSeed(kSeed, 0xA221));
    std::size_t in_burst = 0;
    while (submitted < config.requests) {
      arrival += gap_rng.Uniform(0.5, 1.5) * config.mean_gap_ns;
      auto id = submit_next(arrival);
      if (!id.ok()) {
        // Open loop: an admission rejection is a data point, not an error.
      }
      if (++in_burst == config.burst) {
        in_burst = 0;
        while ((*service)->RunUntilIdle() > 0) {
        }
      }
    }
    while ((*service)->RunUntilIdle() > 0) {
    }
  }

  RunResult result;
  result.config = config;
  result.stats = (*service)->stats();
  result.makespan_ns = (*service)->virtual_now_ns();

  std::vector<double> latencies;
  latencies.reserve(responses.size());
  double served = 0.0;
  for (const Response& response : responses) {
    if (response.served()) {
      latencies.push_back(response.latency_ns());
      served += 1.0;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_us = Percentile(latencies, 0.50) * 1e-3;
  result.p99_us = Percentile(latencies, 0.99) * 1e-3;
  result.p999_us = Percentile(latencies, 0.999) * 1e-3;
  result.sustained_qps =
      result.makespan_ns > 0.0 ? served / (result.makespan_ns * 1e-9) : 0.0;
  const auto& stats = result.stats;
  const double admitted = static_cast<double>(stats.admitted);
  result.availability = admitted > 0.0 ? served / admitted : 1.0;
  result.degrade_rate =
      served > 0.0 ? static_cast<double>(stats.completed_degraded) / served
                   : 0.0;
  const double rejected = static_cast<double>(
      stats.rejected_watermark + stats.rejected_capacity);
  result.rejection_rate =
      stats.submitted > 0 ? rejected / static_cast<double>(stats.submitted)
                          : 0.0;
  result.head_clean_fraction =
      CleanFraction(responses, 0, responses.size() / 2);
  result.tail_clean_fraction =
      CleanFraction(responses, responses.size() / 2, responses.size());
  return result;
}

void PrintRun(const RunResult& r) {
  std::printf(
      "%-14s %6zu %9.1f %9.1f %9.1f %9.1f %6.2f%% %6.2f%% %6.2f%%\n",
      r.config.name.c_str(), static_cast<std::size_t>(r.stats.submitted),
      r.sustained_qps, r.p50_us, r.p99_us, r.p999_us,
      100.0 * r.availability, 100.0 * r.degrade_rate,
      100.0 * r.rejection_rate);
}

void WriteJson(const std::string& path, const std::vector<RunResult>& runs,
               bool gates_pass) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  CIM_CHECK(out != nullptr);
  std::fprintf(out,
               "{\n  \"bench\": \"bench_serve_latency\",\n"
               "  \"virtual_time\": true,\n"
               "  \"availability_gate\": \"%s\",\n  \"runs\": [\n",
               gates_pass ? "PASS" : "FAIL");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        out,
        "    {\"run\": \"%s\", \"mode\": \"%s\", \"chaos\": %s,\n"
        "     \"submitted\": %llu, \"admitted\": %llu,\n"
        "     \"rejected_watermark\": %llu, \"rejected_capacity\": %llu,\n"
        "     \"shed_deadline\": %llu, \"completed_clean\": %llu,\n"
        "     \"completed_degraded\": %llu, \"failed\": %llu,\n"
        "     \"retries\": %llu, \"batches\": %llu,\n"
        "     \"mean_batch_fill\": %.3f,\n"
        "     \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f,\n"
        "     \"sustained_qps\": %.1f, \"virtual_makespan_ms\": %.3f,\n"
        "     \"availability\": %.4f, \"degrade_rate\": %.4f,\n"
        "     \"rejection_rate\": %.4f,\n"
        "     \"head_clean_fraction\": %.4f, "
        "\"tail_clean_fraction\": %.4f}%s\n",
        r.config.name.c_str(), r.config.closed_loop ? "closed" : "open",
        r.config.chaos ? "true" : "false",
        static_cast<unsigned long long>(r.stats.submitted),
        static_cast<unsigned long long>(r.stats.admitted),
        static_cast<unsigned long long>(r.stats.rejected_watermark),
        static_cast<unsigned long long>(r.stats.rejected_capacity),
        static_cast<unsigned long long>(r.stats.shed_deadline),
        static_cast<unsigned long long>(r.stats.completed_clean),
        static_cast<unsigned long long>(r.stats.completed_degraded),
        static_cast<unsigned long long>(r.stats.failed),
        static_cast<unsigned long long>(r.stats.retries),
        static_cast<unsigned long long>(r.stats.batches),
        r.stats.batches > 0
            ? static_cast<double>(r.stats.batched_elements) /
                  static_cast<double>(r.stats.batches)
            : 0.0,
        r.p50_us, r.p99_us, r.p999_us, r.sustained_qps,
        r.makespan_ns * 1e-6, r.availability, r.degrade_rate,
        r.rejection_rate, r.head_clean_fraction, r.tail_clean_fraction,
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  CIM_CHECK(std::fclose(out) == 0);
  std::printf("wrote %s\n", path.c_str());
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
  const std::size_t n = smoke ? 96 : 384;

  std::vector<RunConfig> configs;
  {
    RunConfig quiet;
    quiet.name = "open-quiet";
    quiet.requests = n;
    configs.push_back(quiet);

    RunConfig overload;
    overload.name = "open-overload";
    overload.requests = n;
    overload.mean_gap_ns = 500.0;  // ~50x the service's drain rate
    overload.burst = 128;
    overload.watermark = 64;
    overload.deadline_ns = 2e6;
    configs.push_back(overload);

    RunConfig closed;
    closed.name = "closed-quiet";
    closed.closed_loop = true;
    closed.requests = n;
    configs.push_back(closed);

    RunConfig chaos;
    chaos.name = "open-chaos";
    chaos.chaos = true;
    chaos.requests = n;
    chaos.deadline_ns = 50e6;  // generous: retries must fit under it
    configs.push_back(chaos);
  }

  std::printf(
      "== DpeService virtual-time serving (batch window 200us, max batch 8) "
      "==\n%-14s %6s %9s %9s %9s %9s %7s %7s %7s\n",
      "run", "reqs", "qps", "p50_us", "p99_us", "p999_us", "avail",
      "degrade", "reject");
  std::vector<RunResult> runs;
  for (const RunConfig& config : configs) {
    runs.push_back(Execute(config));
    PrintRun(runs.back());
  }

  // Gates. Virtual time makes them exact, so they run in smoke mode too.
  bool ok = true;
  for (const RunResult& r : runs) {
    if (r.config.chaos) {
      if (r.availability < 0.99) {
        std::printf("FAIL: %s availability %.4f < 0.99\n",
                    r.config.name.c_str(), r.availability);
        ok = false;
      }
      if (r.tail_clean_fraction < r.head_clean_fraction) {
        std::printf(
            "FAIL: %s did not recover (tail clean %.4f < head clean "
            "%.4f)\n",
            r.config.name.c_str(), r.tail_clean_fraction,
            r.head_clean_fraction);
        ok = false;
      }
    }
    if (r.config.name == "open-overload" && r.stats.rejected_watermark == 0) {
      std::printf(
          "FAIL: open-overload produced no watermark rejections — the "
          "admission control path went unexercised\n");
      ok = false;
    }
  }
  std::printf("availability/recovery gates: %s\n", ok ? "PASS" : "FAIL");

  if (!json_path.empty()) WriteJson(json_path, runs, ok);
  return ok ? 0 : 1;
}
