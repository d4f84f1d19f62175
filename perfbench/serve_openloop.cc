// serve-openloop: serve::DpeService pumped with RunUntilIdle (no
// dispatcher thread), two WFQ tenants (weights 2:1), open-loop Poisson
// arrivals on the virtual clock over a fixed ladder of rates: window-bound,
// batch-fill-bound, near capacity and beyond it, where the SLA loop lowers
// the admission watermark and deadlines shed. A FaultInjector adds a
// stuck-cell cluster and a tile death against 4 spare tiles, so retries and
// remap reprogramming run beside inference. Every round replays the same
// ladder on a fresh service, so every round must digest the same.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "probes.h"
#include "reliability/fault_injector.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::dpe::DpeAccelerator;
using cim::nn::Tensor;
using cim::serve::DpeService;
using cim::serve::Outcome;
using cim::serve::Response;

constexpr std::size_t kInputDim = 16;
const std::vector<std::size_t> kWidths = {kInputDim, 24, 8};
// The chip (weights, programming, fault scenario) is fixed; the seed makes
// the inputs and the arrival times.
constexpr std::uint64_t kChipSeed = 0x5E12F3;
// The ladder (requests per second of virtual time): window-bound, two
// batch-fill-bound rates, near capacity (~20M/s: 8-request batches of
// ~0.4 us) and beyond it, where admission control refuses requests.
constexpr double kRatesRps[] = {1e4, 2e5, 2e6, 1.6e7, 6.4e7};
constexpr std::size_t kRungs = std::size(kRatesRps);
constexpr std::size_t kFillRung = 2;  // model_latency_us_* come from here
// Requests per rung: enough at the batch-fill rung for a p99 with ten
// samples beyond it; fewer elsewhere, so a round stays short and a run holds
// many rounds (each round runs on the next CPU).
constexpr std::size_t kRungRequests[] = {250, 250, 1000, 250, 250};
constexpr double kRungGapNs = 5e6;        // idle gap between rungs
constexpr double kLatencyLimitNs = 500e3;  // p99 limit for max_rate_rps
constexpr double kDeadlineNs = 2e6;
// Before each pump the generator submits every request that has arrived by
// the service's virtual clock (a backlog queues, and admission control sees
// it) plus up to kLookahead future ones within the largest batching window,
// so batches form exactly as if requests trickled in.
constexpr std::size_t kLookahead = 32;
constexpr double kLookaheadNs = 800e3;

struct Arrival {
  double at_ns = 0.0;
  cim::serve::TenantId tenant = 0;
  std::size_t rung = 0;
};

cim::reliability::FaultScenario Scenario() {
  using cim::reliability::FaultKind;
  using cim::reliability::FaultSpec;
  cim::reliability::FaultScenario scenario;
  scenario.seed = kChipSeed;
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

cim::serve::ServeParams ServiceParams() {
  cim::serve::ServeParams p;
  p.seed = kChipSeed;
  p.expected_input_elements = kInputDim;
  p.batching.max_batch = 8;
  p.batching.window_ns = 200e3;
  p.admission.watermark = 64;
  p.admission.max_watermark = 64;
  p.retry.max_retries = 3;
  p.sla.enabled = true;
  p.sla.target_latency_ns = kLatencyLimitNs;
  return p;
}

// One service stack. Members are destroyed service first, injector last:
// each is used by the one declared after it.
struct Instance {
  std::unique_ptr<cim::reliability::FaultInjector> injector;
  std::unique_ptr<DpeAccelerator> acc;
  std::unique_ptr<DpeService> service;
};

Instance Create(const cim::nn::Network& net, std::size_t threads,
                Tracer& tracer) {
  Instance in;
  cim::dpe::DpeParams p = cim::dpe::DpeParams::Isaac();
  p.array.kernel = cim::device::KernelPolicy::kFastNoise;
  p.worker_threads = threads;
  p.fault_tolerance.enabled = true;
  p.fault_tolerance.spare_tiles = 4;
  {
    auto span = tracer.Open("dpe.Create");
    auto acc = DpeAccelerator::Create(p, net, Rng(kChipSeed));
    CIM_CHECK(acc.ok());
    in.acc = std::move(acc.value());
  }
  in.injector =
      std::make_unique<cim::reliability::FaultInjector>(Scenario());
  CIM_CHECK(in.acc->AttachFaultInjector(in.injector.get()).ok());
  CIM_CHECK(in.injector->Arm().ok());
  auto span = tracer.Open("serve.Create");
  auto service = DpeService::Create(ServiceParams(), in.acc.get());
  CIM_CHECK(service.ok());
  in.service = std::move(service.value());
  CIM_CHECK(in.service
                ->AddTenant({.id = 1, .name = "gold", .weight = 2.0,
                             .queue_capacity = 1024})
                .ok());
  CIM_CHECK(in.service
                ->AddTenant({.id = 2, .name = "bronze", .weight = 1.0,
                             .queue_capacity = 1024})
                .ok());
  return in;
}

struct RoundLog {
  Digest digest;
  std::vector<Response> responses;
  std::vector<std::size_t> arrival_of;  // request id -> arrival index
  cim::serve::ServiceStats stats;
};

RoundLog RunLadder(Instance& in, const std::vector<Arrival>& arrivals,
                   const std::vector<Tensor>& inputs, Tracer& tracer) {
  RoundLog log;
  log.arrival_of.assign(arrivals.size() + 1, 0);
  CIM_CHECK(in.service
                ->SetResponseHandler([&](const Response& r) {
                  auto span = tracer.Open("serve.handler", r.id);
                  log.responses.push_back(r);
                })
                .ok());
  std::size_t next = 0;
  while (next < arrivals.size()) {
    const double now = in.service->virtual_now_ns();
    const double horizon = std::max(now, arrivals[next].at_ns) + kLookaheadNs;
    for (std::size_t k = 0;
         next < arrivals.size() &&
         (arrivals[next].at_ns <= now ||
          (k < kLookahead && arrivals[next].at_ns < horizon));
         ++k, ++next) {
      const Arrival& a = arrivals[next];
      cim::serve::SubmitArgs args;
      args.tenant = a.tenant;
      args.input = inputs[next];
      args.arrival_ns = a.at_ns;
      args.deadline_ns = kDeadlineNs;
      auto span = tracer.Open("serve.Submit");
      auto id = in.service->Submit(args);
      if (id.ok()) {
        span.set_request(*id);
        CIM_CHECK(*id < log.arrival_of.size());
        log.arrival_of[*id] = next;
      } else {
        log.digest.Add(static_cast<std::uint64_t>(next));
        log.digest.Add(static_cast<std::uint64_t>(id.status().code()));
      }
    }
    auto span = tracer.Open("serve.RunUntilIdle");
    while (in.service->RunUntilIdle() > 0) {
    }
  }
  for (const Response& r : log.responses) {
    log.digest.Add(r.id);
    log.digest.Add(r.tenant);
    log.digest.Add(static_cast<std::uint64_t>(r.outcome));
    log.digest.Add(static_cast<std::uint64_t>(r.attempts));
    log.digest.Add(r.arrival_ns);
    log.digest.Add(r.dispatch_ns);
    log.digest.Add(r.completion_ns);
    for (const double v : r.output.vec()) log.digest.Add(v);
    log.digest.Add(r.cost);
    log.digest.Add(r.fault_report.detected);
    log.digest.Add(r.fault_report.degraded);
  }
  log.stats = in.service->stats();
  log.digest.Add(log.stats.batches);
  log.digest.Add(log.stats.retries);
  log.digest.Add(log.stats.sla_scale_up);
  log.digest.Add(log.stats.sla_scale_down);
  log.digest.Add(in.acc->recovery_cost());
  return log;
}

// Latencies of one rung's requests in arrival order; refused and shed
// requests count as +inf (they miss any limit).
std::vector<double> RungLatencies(const RoundLog& log,
                                  const std::vector<Arrival>& arrivals,
                                  std::size_t rung) {
  std::vector<double> by_arrival(arrivals.size(), INFINITY);
  for (const Response& r : log.responses) {
    if (r.served()) by_arrival[log.arrival_of[r.id]] = r.latency_ns();
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].rung == rung) out.push_back(by_arrival[i]);
  }
  return out;
}

std::vector<double> Finite(const std::vector<double>& v) {
  std::vector<double> out;
  for (const double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

// A rung meets the limit when its p99 (refusals included) is within it and
// its backlog does not grow: the last quarter's median latency stays within
// twice the first quarter's.
bool MeetsLimit(const std::vector<double>& latencies) {
  if (Quantile(latencies, 0.99) > kLatencyLimitNs) return false;
  const std::size_t q = latencies.size() / 4;
  const std::vector<double> head(latencies.begin(), latencies.begin() + q);
  const std::vector<double> tail(latencies.end() - q, latencies.end());
  return Median(tail) <= 2.0 * Median(head);
}

}  // namespace

WorkloadReport RunServeOpenloop(const RunOptions& options, Tracer& tracer) {
  Rng net_rng(kChipSeed);
  const cim::nn::Network net =
      cim::nn::BuildMlp("serve-openloop", kWidths, net_rng, 0.35);
  std::size_t requests = 0;
  for (const std::size_t n : kRungRequests) requests += n;
  const std::vector<Tensor> inputs =
      ConfidentInputs(net, kInputDim, requests, DeriveSeed(options.seed, 2));
  std::vector<Arrival> arrivals;
  Rng arrival_rng(DeriveSeed(options.seed, 3));
  double t = 0.0;
  for (std::size_t rung = 0; rung < kRungs; ++rung) {
    const double per_ns = kRatesRps[rung] * 1e-9;
    for (std::size_t i = 0; i < kRungRequests[rung]; ++i) {
      t += arrival_rng.Exponential(per_ns);
      arrivals.push_back({t, arrival_rng.Bernoulli(0.5) ? 1u : 2u, rung});
    }
    t += kRungGapNs;
  }

  WorkloadReport report;
  EndToEnd e2e;

  // Rounds: a fresh service (set-up, untimed) replays the whole ladder.
  Instance in;
  RoundLog fixed;
  std::size_t round = 0;
  const auto prepare = [&] {
    in.service.reset();
    in.acc.reset();
    in.injector.reset();
    const double t0 = NowSeconds();
    in = Create(net, kServeOpenloopThreads, tracer);
    e2e.setup_s.push_back(NowSeconds() - t0);
  };
  const auto one_round = [&] {
    RoundLog log = RunLadder(in, arrivals, inputs, tracer);
    const std::uint64_t served =
        log.stats.completed_clean + log.stats.completed_degraded;
    report.attempted += arrivals.size();
    report.failed += log.stats.failed;
    if (round++ == 0) {
      fixed = std::move(log);
    } else if (log.digest.Hex() != fixed.digest.Hex()) {
      report.failed += arrivals.size();  // a replay diverged
      report.notes.push_back("round " + std::to_string(round - 1) +
                             " digest differs from round 0");
    }
    return static_cast<double>(served);
  };
  std::vector<double> traced_rates;
  e2e.items_per_s = TimeRounds(options.seconds, 2, prepare, one_round,
                               options.trace ? &tracer : nullptr,
                               &traced_rates);
  report.digest = fixed.digest.Hex();
  report.check_digest = report.digest;
  report.fixed_items = arrivals.size();

  // Virtual-clock results of the fixed round.
  const cim::serve::ServiceStats& st = fixed.stats;
  std::size_t agree = 0, served = 0, clean = 0;
  double energy = 0.0;
  for (const Response& r : fixed.responses) {
    if (!r.served()) continue;
    ++served;
    if (r.outcome == Outcome::kOk) ++clean;
    energy += r.cost.energy_pj;
    auto golden = cim::nn::Forward(net, inputs[fixed.arrival_of[r.id]]);
    CIM_CHECK(golden.ok());
    if (ArgMax(golden->vec()) == ArgMax(r.output.vec())) ++agree;
  }
  e2e.model_latency_ns =
      Finite(RungLatencies(fixed, arrivals, kFillRung));
  e2e.model_energy_pj_per_item = energy / static_cast<double>(served);
  e2e.top1_agreement =
      static_cast<double>(agree) / static_cast<double>(served);
  std::vector<double> rung_p99;
  for (std::size_t rung = 0; rung < kRungs; ++rung) {
    const std::vector<double> lat = RungLatencies(fixed, arrivals, rung);
    if (MeetsLimit(lat)) e2e.max_rate_rps = kRatesRps[rung];
    rung_p99.push_back(Quantile(Finite(lat), 0.99));
  }
  e2e.attempted = arrivals.size();
  e2e.unsuccessful = arrivals.size() - clean;
  MetricMap e2e_metrics = EndToEndMetrics(e2e);

  // The fixed round replayed at two threads must digest the same.
  tracer.set_enabled(false);
  {
    report.replay_threads = UsableCpus() > 1 ? 2 : 1;
    Instance replay = Create(net, report.replay_threads, tracer);
    report.check_digest_replay =
        RunLadder(replay, arrivals, inputs, tracer).digest.Hex();
  }
  tracer.set_enabled(true);

  if (!options.trace) {
    report.metrics = std::move(e2e_metrics);
    return report;
  }
  MetricMap& m = report.metrics;
  const std::vector<double> mvm_us = AddLayerProbes(nullptr, 64, &m);
  const auto us = [&](const char* span) { return tracer.DurationsUs(span); };
  m["dpe.create_ms"] = {Median(us("dpe.Create")) * 1e-3, "ms"};
  m["dpe.arrays_used"] = {static_cast<double>(in.acc->arrays_used()),
                          "count"};
  const cim::dpe::FaultReport& rec = in.acc->recovery_stats();
  m["dpe.recovery.detected"] = {static_cast<double>(rec.detected), "count"};
  m["dpe.recovery.retried"] = {static_cast<double>(rec.retried), "count"};
  m["dpe.recovery.remapped"] = {static_cast<double>(rec.remapped), "count"};
  m["dpe.recovery.degraded"] = {static_cast<double>(rec.degraded), "count"};
  m["dpe.recovery_cost_pj"] = {in.acc->recovery_cost().energy_pj, "pJ"};
  m["serve.submit_us.p50"] = {Median(us("serve.Submit")), "us"};
  m["serve.pump_ms.p50"] = {Median(us("serve.RunUntilIdle")) * 1e-3, "ms"};
  m["serve.handler_us.p50"] = {Median(us("serve.handler")), "us"};
  std::vector<double> wait, service;
  for (const Response& r : fixed.responses) {
    if (!r.served()) continue;
    wait.push_back(r.dispatch_ns - r.arrival_ns);
    service.push_back(r.completion_ns - r.dispatch_ns);
  }
  m["serve.queue_wait_us.p50"] = {Quantile(wait, 0.5) * 1e-3, "model_us"};
  m["serve.queue_wait_us.p99"] = {Quantile(wait, 0.99) * 1e-3, "model_us"};
  m["serve.service_us.p50"] = {Quantile(service, 0.5) * 1e-3, "model_us"};
  m["serve.batch_fill"] = {static_cast<double>(st.batched_elements) /
                               static_cast<double>(st.batches),
                           "count"};
  m["serve.batches"] = {static_cast<double>(st.batches), "count"};
  for (std::size_t rung = 0; rung < kRungs; ++rung) {
    m["serve.p99_us.r" + std::to_string(rung)] = {rung_p99[rung] * 1e-3,
                                                  "model_us"};
  }
  m["serve.retries"] = {static_cast<double>(st.retries), "count"};
  m["serve.shed_deadline"] = {static_cast<double>(st.shed_deadline), "count"};
  m["serve.rejected_watermark"] = {static_cast<double>(st.rejected_watermark),
                                   "count"};
  m["serve.rejected_capacity"] = {static_cast<double>(st.rejected_capacity),
                                  "count"};
  m["serve.sla.scale_up"] = {static_cast<double>(st.sla_scale_up), "count"};
  m["serve.sla.scale_down"] = {static_cast<double>(st.sla_scale_down),
                               "count"};
  m["serve.sla.relocations"] = {static_cast<double>(st.sla_relocations),
                                "count"};
  // Tile MVMs of every executed element (retries included) plus the
  // accelerator's own re-executions.
  const TileCount tiles = CountTiles(kWidths, 128, 128, true);
  m["crossbar.mvm_calls"] = {
      static_cast<double>(tiles.tiles * st.batched_elements + rec.retried),
      "count"};
  const std::vector<double> pump = us("serve.RunUntilIdle");
  double pump_total = 0.0;
  for (const double p : pump) pump_total += p;
  m["crossbar.share_est"] = {
      tiles.equivalents * static_cast<double>(st.batched_elements) *
          mvm_us[2] /
          (static_cast<double>(kServeOpenloopThreads) * pump_total /
           static_cast<double>(traced_rates.size())),
      "fraction"};
  m["trace.overhead_fraction"] = {
      TraceOverhead(e2e.items_per_s, traced_rates), "fraction"};
  return report;
}

}  // namespace perfbench
