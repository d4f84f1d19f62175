// cim::serve::DpeService pins: dynamic-batching coalescing, watermark
// rejection under overload, expired-deadline shedding, the deterministic
// retry-backoff schedule, per-tenant weighted-fair isolation, capability
// enforcement, the SLA rule (JudgeSla) and its closed loop, bit-identity
// of outputs AND virtual latencies across accelerator thread counts, and
// byte identity of the fast-noise serving path to a direct InferBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "boundary_values.h"
#include "common/rng.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "reliability/fault_injector.h"
#include "security/capability.h"
#include "serve/service.h"
#include "serve/tenant.h"

namespace cim {
namespace {

using dpe::DpeAccelerator;
using dpe::DpeParams;
using reliability::FaultInjector;
using reliability::FaultKind;
using reliability::FaultScenario;
using reliability::FaultSpec;
using serve::DpeService;
using serve::Outcome;
using serve::Response;
using serve::JudgeSla;
using serve::ServeParams;
using serve::SlaAction;
using serve::SlaLoopParams;
using serve::SlaWindow;
using serve::SubmitArgs;
using serve::TenantConfig;

constexpr std::size_t kInputDim = 12;

nn::Network TestNet() {
  Rng rng(7);
  return nn::BuildMlp("serve-net", {kInputDim, 10, 4}, rng, 0.4);
}

DpeParams AccelParams(std::size_t threads, bool fault_tolerant = false,
                      std::size_t spares = 0) {
  DpeParams params = DpeParams::Isaac();
  params.worker_threads = threads;
  if (fault_tolerant) {
    params.fault_tolerance.enabled = true;
    params.fault_tolerance.spare_tiles = spares;
  }
  return params;
}

ServeParams QuietParams() {
  ServeParams params;
  params.seed = 0xC1A0;
  params.expected_input_elements = kInputDim;
  params.batching.max_batch = 8;
  params.batching.window_ns = 200e3;
  params.sla.enabled = false;
  return params;
}

nn::Tensor MakeInput(std::uint64_t salt) {
  Rng rng(DeriveSeed(123, salt));
  nn::Tensor t({kInputDim});
  for (auto& v : t.vec()) v = rng.Uniform(0.0, 1.0);
  return t;
}

// A persistent layer-0 stuck-on cluster from step 0: with zero spares every
// inference stays degraded, which drives the service-level retry path.
FaultScenario DegradeScenario() {
  FaultScenario scenario;
  scenario.seed = 99;
  FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 0;
  cluster.tile = 0;
  cluster.cells = 24;
  cluster.row = 2;
  cluster.col = 3;
  scenario.specs.push_back(cluster);
  return scenario;
}

struct Harness {
  std::unique_ptr<DpeAccelerator> accelerator;
  std::unique_ptr<DpeService> service;
  std::vector<Response> responses;
};

Harness MakeHarness(const ServeParams& params, std::size_t threads,
                    const security::CapabilityAuthority* authority = nullptr,
                    bool fault_tolerant = false, std::size_t spares = 0) {
  Harness h;
  auto accelerator = DpeAccelerator::Create(
      AccelParams(threads, fault_tolerant, spares), TestNet(), Rng(42));
  EXPECT_TRUE(accelerator.ok());
  h.accelerator = std::move(*accelerator);
  auto service = DpeService::Create(params, h.accelerator.get(), authority);
  EXPECT_TRUE(service.ok());
  h.service = std::move(*service);
  return h;
}

void CollectResponses(Harness& h) {
  ASSERT_TRUE(h.service
                  ->SetResponseHandler([&h](const Response& response) {
                    h.responses.push_back(response);
                  })
                  .ok());
}

TEST(DpeServiceTest, CoalescesArrivalsWithinWindowIntoOneBatch) {
  Harness h = MakeHarness(QuietParams(), 1);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  for (std::uint64_t i = 0; i < 6; ++i) {
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = static_cast<double>(i) * 5e3;  // all inside 200us
    ASSERT_TRUE(h.service->Submit(args).ok());
  }
  EXPECT_GT(h.service->RunUntilIdle(), 0u);

  const auto stats = h.service->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_elements, 6u);
  EXPECT_EQ(stats.completed_clean, 6u);
  ASSERT_EQ(h.responses.size(), 6u);
  // The batch fires when the oldest arrival has waited out the window.
  for (const Response& r : h.responses) {
    EXPECT_DOUBLE_EQ(r.dispatch_ns, 200e3);
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_GT(r.latency_ns(), 0.0);
  }
}

TEST(DpeServiceTest, FullBatchDispatchesBeforeWindowExpires) {
  Harness h = MakeHarness(QuietParams(), 1);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  for (std::uint64_t i = 0; i < 8; ++i) {  // exactly max_batch
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = static_cast<double>(i) * 1e3;
    ASSERT_TRUE(h.service->Submit(args).ok());
  }
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  ASSERT_EQ(h.responses.size(), 8u);
  // Dispatch at the 8th arrival (7us), far before the 200us window.
  for (const Response& r : h.responses) {
    EXPECT_DOUBLE_EQ(r.dispatch_ns, 7e3);
  }
  EXPECT_EQ(h.service->stats().batches, 1u);
}

TEST(DpeServiceTest, WatermarkRejectsWithUnavailableUnderOverload) {
  ServeParams params = QuietParams();
  params.admission.min_watermark = 2;
  params.admission.watermark = 4;
  Harness h = MakeHarness(params, 1);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  int admitted = 0;
  int rejected = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = 0.0;
    auto id = h.service->Submit(args);
    if (id.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(id.status().code(), ErrorCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(h.service->stats().rejected_watermark, 2u);
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  EXPECT_EQ(h.service->stats().completed_clean, 4u);
}

TEST(DpeServiceTest, TenantQueueBoundRejectsWithCapacityExceeded) {
  Harness h = MakeHarness(QuietParams(), 1);
  ASSERT_TRUE(
      h.service->AddTenant({.id = 1, .name = "a", .queue_capacity = 2}).ok());
  SubmitArgs args;
  args.tenant = 1;
  args.arrival_ns = 0.0;
  args.input = MakeInput(0);
  ASSERT_TRUE(h.service->Submit(args).ok());
  ASSERT_TRUE(h.service->Submit(args).ok());
  auto third = h.service->Submit(args);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kCapacityExceeded);
  EXPECT_EQ(h.service->stats().rejected_capacity, 1u);
}

TEST(DpeServiceTest, ShedsRequestsWhoseDeadlineExpiredBeforeDispatch) {
  ServeParams params = QuietParams();
  params.batching.window_ns = 100e3;
  Harness h = MakeHarness(params, 1);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());

  SubmitArgs tight;
  tight.tenant = 1;
  tight.input = MakeInput(0);
  tight.arrival_ns = 0.0;
  tight.deadline_ns = 10e3;  // expires before the 100us window fires
  ASSERT_TRUE(h.service->Submit(tight).ok());

  SubmitArgs relaxed;
  relaxed.tenant = 1;
  relaxed.input = MakeInput(1);
  relaxed.arrival_ns = 0.0;
  ASSERT_TRUE(h.service->Submit(relaxed).ok());

  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.responses[0].outcome, Outcome::kShedDeadline);
  EXPECT_EQ(h.responses[0].output.size(), 0u);
  EXPECT_EQ(h.responses[1].outcome, Outcome::kOk);
  const auto stats = h.service->stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.completed_clean, 1u);
}

TEST(BackoffTest, ScheduleIsDeterministicExponentialWithBoundedJitter) {
  serve::RetryParams retry;
  retry.base_backoff_ns = 100e3;
  retry.jitter_fraction = 0.25;
  double previous = 0.0;
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const double wait = serve::BackoffNs(retry, 77, 5, attempt);
    const double base =
        retry.base_backoff_ns * static_cast<double>(1u << (attempt - 1));
    EXPECT_GE(wait, base);
    EXPECT_LT(wait, base * (1.0 + retry.jitter_fraction));
    EXPECT_GT(wait, previous);  // monotone growth across attempts
    previous = wait;
    // Replay-stable: the same (seed, id, attempt) reproduces the bits.
    EXPECT_EQ(wait, serve::BackoffNs(retry, 77, 5, attempt));
  }
  // Distinct requests get decorrelated jitter.
  EXPECT_NE(serve::BackoffNs(retry, 77, 5, 1),
            serve::BackoffNs(retry, 77, 6, 1));
}

TEST(DpeServiceTest, RetriesFlaggedResultsThenDeliversDegraded) {
  ServeParams params = QuietParams();
  params.retry.max_retries = 2;
  Harness h = MakeHarness(params, 1, nullptr, /*fault_tolerant=*/true,
                          /*spares=*/0);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());

  FaultInjector injector(DegradeScenario());
  ASSERT_TRUE(h.accelerator->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());

  SubmitArgs args;
  args.tenant = 1;
  args.input = MakeInput(0);
  args.arrival_ns = 0.0;
  ASSERT_TRUE(h.service->Submit(args).ok());
  EXPECT_GT(h.service->RunUntilIdle(), 0u);

  ASSERT_EQ(h.responses.size(), 1u);
  const Response& r = h.responses[0];
  // No spares: every attempt stays degraded, so the service retries
  // max_retries times and then accepts the flagged-degrade result.
  EXPECT_EQ(r.outcome, Outcome::kOkDegraded);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_FALSE(r.fault_report.clean());
  const auto stats = h.service->stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.completed_degraded, 1u);
  // The final dispatch sits after both backoff waits in virtual time.
  const double min_backoff =
      serve::BackoffNs(params.retry, params.seed, r.id, 1);
  EXPECT_GE(r.dispatch_ns, min_backoff);
  EXPECT_GT(r.latency_ns(), min_backoff);
}

TEST(DpeServiceTest, WeightedFairDispatchIsolatesTenants) {
  ServeParams params = QuietParams();
  params.batching.max_batch = 4;
  params.admission.max_watermark = 256;
  params.admission.watermark = 128;
  Harness h = MakeHarness(params, 1);
  CollectResponses(h);
  ASSERT_TRUE(
      h.service->AddTenant({.id = 1, .name = "gold", .weight = 3.0}).ok());
  ASSERT_TRUE(
      h.service->AddTenant({.id = 2, .name = "bronze", .weight = 1.0}).ok());

  for (std::uint64_t i = 0; i < 40; ++i) {
    SubmitArgs args;
    args.input = MakeInput(i);
    args.arrival_ns = 0.0;
    args.tenant = 1;
    ASSERT_TRUE(h.service->Submit(args).ok());
    args.tenant = 2;
    args.input = MakeInput(100 + i);
    ASSERT_TRUE(h.service->Submit(args).ok());
  }
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  ASSERT_EQ(h.responses.size(), 80u);

  // While both tenants are backlogged, stride scheduling gives the
  // weight-3 tenant exactly 3 of every 4 dispatch slots.
  int gold = 0;
  int bronze = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    (h.responses[i].tenant == 1 ? gold : bronze) += 1;
  }
  EXPECT_EQ(gold, 30);
  EXPECT_EQ(bronze, 10);
}

TEST(DpeServiceTest, CapabilityChecksGateSubmission) {
  const security::CapabilityAuthority authority(0x5EA1);
  Harness h = MakeHarness(QuietParams(), 1, &authority);
  ASSERT_TRUE(
      h.service->AddTenant({.id = 1, .name = "a", .partition = 7}).ok());

  const std::uint64_t bytes = kInputDim * sizeof(double);
  const std::uint8_t execute =
      security::PermissionBits({security::Permission::kExecute});
  SubmitArgs args;
  args.tenant = 1;
  args.input = MakeInput(0);
  args.arrival_ns = 0.0;

  // Valid execute token for the tenant's partition: admitted.
  args.capability = authority.Issue(7, 0, bytes, execute);
  EXPECT_TRUE(h.service->Submit(args).ok());

  // Token sealed for another partition.
  args.capability = authority.Issue(8, 0, bytes, execute);
  auto wrong_partition = h.service->Submit(args);
  ASSERT_FALSE(wrong_partition.ok());
  EXPECT_EQ(wrong_partition.status().code(), ErrorCode::kPermissionDenied);

  // Tampered token: widening the bounds breaks the seal.
  args.capability = authority.Issue(7, 0, bytes, execute);
  args.capability.length = bytes * 2;
  auto forged = h.service->Submit(args);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), ErrorCode::kPermissionDenied);

  // Read-only token lacks kExecute.
  args.capability = authority.Issue(
      7, 0, bytes, security::PermissionBits({security::Permission::kRead}));
  auto read_only = h.service->Submit(args);
  ASSERT_FALSE(read_only.ok());
  EXPECT_EQ(read_only.status().code(), ErrorCode::kPermissionDenied);

  // Token bounds smaller than the request payload.
  args.capability = authority.Issue(7, 0, 8, execute);
  auto narrow = h.service->Submit(args);
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), ErrorCode::kPermissionDenied);

  EXPECT_EQ(h.service->stats().rejected_permission, 4u);
}

TEST(DpeServiceTest, AcceleratorThreadCountDoesNotChangeResponses) {
  auto run = [](std::size_t threads) {
    ServeParams params = QuietParams();
    params.batching.max_batch = 4;
    Harness h = MakeHarness(params, threads);
    CollectResponses(h);
    EXPECT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
    EXPECT_TRUE(
        h.service->AddTenant({.id = 2, .name = "b", .weight = 2.0}).ok());
    for (std::uint64_t i = 0; i < 24; ++i) {
      SubmitArgs args;
      args.tenant = 1 + (i % 2);
      args.input = MakeInput(i);
      args.arrival_ns = static_cast<double>(i) * 20e3;
      EXPECT_TRUE(h.service->Submit(args).ok());
    }
    EXPECT_GT(h.service->RunUntilIdle(), 0u);
    return std::make_pair(std::move(h.responses), h.service->stats());
  };

  auto [one, one_stats] = run(1);
  auto [four, four_stats] = run(4);
  ASSERT_EQ(one.size(), 24u);
  ASSERT_EQ(four.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].id, four[i].id);
    EXPECT_EQ(one[i].tenant, four[i].tenant);
    EXPECT_EQ(one[i].outcome, four[i].outcome);
    // Virtual latencies are part of the determinism contract, not just
    // output bits.
    EXPECT_EQ(one[i].arrival_ns, four[i].arrival_ns);
    EXPECT_EQ(one[i].dispatch_ns, four[i].dispatch_ns);
    EXPECT_EQ(one[i].completion_ns, four[i].completion_ns);
    ASSERT_EQ(one[i].output.size(), four[i].output.size());
    for (std::size_t k = 0; k < one[i].output.size(); ++k) {
      EXPECT_EQ(one[i].output[k], four[i].output[k])
          << "response " << i << " element " << k;
    }
  }
  EXPECT_EQ(one_stats.batches, four_stats.batches);
  EXPECT_EQ(one_stats.batched_elements, four_stats.batched_elements);
  EXPECT_EQ(one_stats.completed_clean, four_stats.completed_clean);
}

// Byte identity of two doubles (distinguishes -0.0 and NaN payloads,
// which operator== does not).
bool SameBytes(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(DpeServiceTest, FastNoiseServiceMatchesDirectInferBatch) {
  // Differential: the service adds queueing, batching and virtual time, but
  // no arithmetic. On the serving device (kFastNoise kernel, ABFT guard
  // column on, no fault injector) every response's output and cost must be
  // byte-equal to one direct InferBatch over the same inputs in submission
  // order, whatever the batching window and accelerator thread count.
  constexpr std::size_t kServeInput = 16;
  constexpr std::size_t kRequests = 40;
  const auto net = [] {
    Rng rng(0x5E12F3);
    return nn::BuildMlp("serve-fast-noise", {kServeInput, 24, 8}, rng, 0.35);
  };
  const auto serving_device = [](std::size_t threads) {
    DpeParams params = AccelParams(threads, /*fault_tolerant=*/true, 4);
    params.array.kernel = device::KernelPolicy::kFastNoise;
    return params;
  };
  std::vector<nn::Tensor> inputs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    Rng rng(DeriveSeed(0xD1FF, i));
    nn::Tensor t({kServeInput});
    for (auto& v : t.vec()) v = rng.Uniform(0.0, 1.0);
    inputs.push_back(std::move(t));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    auto direct_acc =
        DpeAccelerator::Create(serving_device(threads), net(), Rng(42));
    ASSERT_TRUE(direct_acc.ok());
    auto direct = (*direct_acc)->InferBatch(inputs);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->size(), kRequests);
    for (const double window_ns : {0.0, 200e3}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", window " +
                   std::to_string(window_ns) + " ns");
      ServeParams params = QuietParams();
      params.expected_input_elements = kServeInput;
      params.batching.window_ns = window_ns;
      params.batching.min_window_ns = 0.0;
      Harness h;
      auto acc =
          DpeAccelerator::Create(serving_device(threads), net(), Rng(42));
      ASSERT_TRUE(acc.ok());
      h.accelerator = std::move(*acc);
      auto service = DpeService::Create(params, h.accelerator.get());
      ASSERT_TRUE(service.ok());
      h.service = std::move(*service);
      CollectResponses(h);
      ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
      std::vector<serve::RequestId> ids;
      for (std::size_t i = 0; i < kRequests; ++i) {
        SubmitArgs args;
        args.tenant = 1;
        args.input = inputs[i];
        args.arrival_ns = static_cast<double>(i) * 30e3;
        auto id = h.service->Submit(args);
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
      }
      EXPECT_GT(h.service->RunUntilIdle(), 0u);
      ASSERT_EQ(h.responses.size(), kRequests);
      // Window 0 dispatches each request alone; 200 us coalesces several.
      if (window_ns == 0.0) {
        EXPECT_EQ(h.service->stats().batches, kRequests);
      } else {
        EXPECT_LT(h.service->stats().batches, kRequests);
      }
      for (const Response& r : h.responses) {
        const auto at = std::find(ids.begin(), ids.end(), r.id);
        ASSERT_NE(at, ids.end());
        const auto i = static_cast<std::size_t>(at - ids.begin());
        const dpe::InferResult& want = (*direct)[i];
        EXPECT_TRUE(r.served()) << "request " << i;
        ASSERT_EQ(r.output.size(), want.output.size()) << "request " << i;
        for (std::size_t k = 0; k < want.output.size(); ++k) {
          EXPECT_TRUE(SameBytes(r.output[k], want.output[k]))
              << "request " << i << " element " << k << ": "
              << r.output[k] << " vs " << want.output[k];
        }
        EXPECT_TRUE(SameBytes(r.cost.latency_ns, want.cost.latency_ns))
            << "request " << i;
        EXPECT_TRUE(SameBytes(r.cost.energy_pj, want.cost.energy_pj))
            << "request " << i;
        EXPECT_TRUE(SameBytes(r.cost.bytes_moved, want.cost.bytes_moved))
            << "request " << i;
        EXPECT_EQ(r.cost.operations, want.cost.operations)
            << "request " << i;
      }
    }
  }
}

TEST(DpeServiceTest, ClosedLoopHandlerMaySubmitReentrantly) {
  ServeParams params = QuietParams();
  params.batching.max_batch = 2;
  params.batching.window_ns = 25e3;
  Harness h = MakeHarness(params, 1);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  int completed = 0;
  DpeService* service = h.service.get();
  ASSERT_TRUE(h.service
                  ->SetResponseHandler([&completed,
                                        service](const Response& response) {
                    ++completed;
                    if (completed < 10) {
                      SubmitArgs args;
                      args.tenant = 1;
                      args.input = MakeInput(
                          static_cast<std::uint64_t>(completed));
                      args.arrival_ns = response.completion_ns;
                      EXPECT_TRUE(service->Submit(args).ok());
                    }
                  })
                  .ok());
  SubmitArgs first;
  first.tenant = 1;
  first.input = MakeInput(0);
  first.arrival_ns = 0.0;
  ASSERT_TRUE(h.service->Submit(first).ok());
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(h.service->stats().completed_clean, 10u);
}

TEST(DpeServiceTest, SlaLoopTightensWindowAndWatermarkUnderViolation) {
  ServeParams params = QuietParams();
  params.sla.enabled = true;
  params.sla.target_latency_ns = 1.0;  // every response violates
  params.sla.min_samples = 4;
  params.sla.evaluate_every = 8;
  params.batching.min_window_ns = 25e3;
  Harness h = MakeHarness(params, 2);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  for (std::uint64_t i = 0; i < 48; ++i) {
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = static_cast<double>(i) * 50e3;
    ASSERT_TRUE(h.service->Submit(args).ok());
  }
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  const auto stats = h.service->stats();
  EXPECT_GE(stats.sla_scale_up, 1u);
  EXPECT_LT(stats.window_ns, params.batching.window_ns);
  EXPECT_LE(stats.watermark, params.admission.watermark);
}

TEST(DpeServiceTest, QualityViolationQuarantinesTenant) {
  ServeParams params = QuietParams();
  params.sla.enabled = true;
  params.sla.target_latency_ns = 1e9;
  params.sla.max_degraded_fraction = 0.0;  // strict quality floor
  params.sla.min_samples = 4;
  params.sla.evaluate_every = 4;
  params.sla.quarantine_ns = 1e9;
  params.retry.max_retries = 0;  // deliver degraded immediately
  Harness h = MakeHarness(params, 1, nullptr, /*fault_tolerant=*/true,
                          /*spares=*/0);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());

  FaultInjector injector(DegradeScenario());
  ASSERT_TRUE(h.accelerator->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());

  for (std::uint64_t i = 0; i < 8; ++i) {
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = static_cast<double>(i) * 10e3;
    ASSERT_TRUE(h.service->Submit(args).ok());
  }
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  const auto stats = h.service->stats();
  EXPECT_GE(stats.sla_relocations, 1u);
  EXPECT_GE(stats.completed_degraded, 4u);

  // The quarantined stream is refused until virtual time passes the
  // horizon.
  SubmitArgs more;
  more.tenant = 1;
  more.input = MakeInput(99);
  auto id = h.service->Submit(more);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(h.service->stats().rejected_quarantine, 1u);
}

// The SLA rule alone: a target of `target_ns` with release_fraction 0.5,
// judged every `min_samples` results against a quality floor of
// `max_degraded` (1.0 = quality off).
SlaLoopParams SlaRule(double target_ns, int min_samples,
                      double max_degraded = 1.0) {
  SlaLoopParams sla;
  sla.target_latency_ns = target_ns;
  sla.release_fraction = 0.5;
  sla.min_samples = min_samples;
  sla.max_degraded_fraction = max_degraded;
  return sla;
}

void AddResults(SlaWindow& window, int n, double latency_ns,
                bool degraded = false) {
  for (int i = 0; i < n; ++i) window.Add(latency_ns, degraded);
}

TEST(SlaRuleTest, ScaleUpOnViolation) {
  SlaWindow window;
  AddResults(window, 4, 2000.0);
  EXPECT_EQ(JudgeSla(SlaRule(1000.0, 4), window), SlaAction::kScaleUp);
}

TEST(SlaRuleTest, ScaleDownWhenFarUnder) {
  SlaWindow window;
  AddResults(window, 4, 100.0);
  EXPECT_EQ(JudgeSla(SlaRule(1000.0, 4), window), SlaAction::kScaleDown);
}

TEST(SlaRuleTest, HysteresisBandTakesNoAction) {
  SlaWindow window;
  window.Add(700.0, false);
  window.Add(800.0, false);
  EXPECT_EQ(JudgeSla(SlaRule(1000.0, 2), window), SlaAction::kNone);
  // A judged window resets even when the verdict is kNone.
  EXPECT_EQ(window.latency_ns.count(), 0u);
}

TEST(SlaRuleTest, NeedsMinimumSamples) {
  const SlaLoopParams sla = SlaRule(1000.0, 8);
  SlaWindow window;
  AddResults(window, 7, 9999.0);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kNone);
  // An unjudged window keeps filling.
  EXPECT_EQ(window.latency_ns.count(), 7u);
  window.Add(9999.0, false);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kScaleUp);
}

TEST(SlaRuleTest, WindowResetsAfterEvaluation) {
  const SlaLoopParams sla = SlaRule(1000.0, 2);
  SlaWindow window;
  AddResults(window, 2, 5000.0);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kScaleUp);
  // Old samples are gone; a single new sample is below min_samples.
  window.Add(5000.0, false);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kNone);
}

TEST(SlaRuleTest, ParamsValidateTheTarget) {
  EXPECT_TRUE(SlaRule(100.0, 2).Validate().ok());
  EXPECT_FALSE(SlaRule(-5.0, 2).Validate().ok());
  EXPECT_FALSE(SlaRule(0.0, 2).Validate().ok());
  SlaLoopParams release = SlaRule(100.0, 2);
  release.release_fraction = 1.5;
  EXPECT_FALSE(release.Validate().ok());
  release.release_fraction = 1.0;
  EXPECT_FALSE(release.Validate().ok());
  release.release_fraction = 0.0;
  EXPECT_FALSE(release.Validate().ok());
  EXPECT_FALSE(SlaRule(100.0, 2, -0.1).Validate().ok());
  EXPECT_FALSE(SlaRule(100.0, 2, 1.5).Validate().ok());
  EXPECT_TRUE(SlaRule(100.0, 2, 0.0).Validate().ok());  // strict floor
}

TEST(SlaRuleTest, RelocateWhenQualityFloorBreached) {
  const SlaLoopParams sla = SlaRule(1000.0, 4, 0.25);
  // Latency inside the hysteresis band: quality alone drives the verdict.
  SlaWindow window;
  AddResults(window, 2, 800.0, /*degraded=*/true);
  AddResults(window, 2, 800.0, /*degraded=*/false);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kRelocate);
  // A degraded share equal to the floor is still within it.
  AddResults(window, 1, 800.0, /*degraded=*/true);
  AddResults(window, 3, 800.0, /*degraded=*/false);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kNone);
}

TEST(SlaRuleTest, QualityFloorDominatesLatencyVerdict) {
  // A tenant can be fast *because* its tiles degraded; relocation must win
  // over the scale-down the latency alone would issue.
  SlaWindow window;
  AddResults(window, 2, 100.0, /*degraded=*/true);
  EXPECT_EQ(JudgeSla(SlaRule(1000.0, 2, 0.25), window),
            SlaAction::kRelocate);
}

TEST(SlaRuleTest, QualityWindowResetsAfterEvaluation) {
  const SlaLoopParams sla = SlaRule(1000.0, 2, 0.25);
  SlaWindow window;
  AddResults(window, 2, 800.0, /*degraded=*/true);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kRelocate);
  EXPECT_EQ(window.degraded, 0u);
  // Old quality samples are gone; one new sample is below min_samples.
  window.Add(800.0, /*was_degraded=*/true);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kNone);
}

TEST(SlaRuleTest, SustainedDegradationRelocatesUntilQualityRecovers) {
  // The hysteresis contract the serving loop's quarantine path leans on:
  // every window that stays above the quality floor demands relocation
  // again, and the first clean window after the tenant lands on healthy
  // hardware takes no action at all (no lingering state from the
  // violating windows).
  const SlaLoopParams sla = SlaRule(1000.0, 4, 0.25);
  SlaWindow window;
  for (int round = 0; round < 3; ++round) {
    AddResults(window, 4, 800.0, /*degraded=*/true);
    EXPECT_EQ(JudgeSla(sla, window), SlaAction::kRelocate)
        << "window " << round;
  }
  // Post-relocation: clean results at a latency inside the hysteresis
  // band (between 0.5 * target and target) -> no action.
  AddResults(window, 4, 800.0, /*degraded=*/false);
  EXPECT_EQ(JudgeSla(sla, window), SlaAction::kNone);
}

TEST(SlaRuleTest, FloorOfOneTurnsQualityOff) {
  SlaWindow window;
  AddResults(window, 2, 800.0, /*degraded=*/true);
  EXPECT_EQ(JudgeSla(SlaRule(1000.0, 2, 1.0), window), SlaAction::kNone);
}

TEST(DpeServiceTest, SubmitRejectsNonFiniteArrivalAndNaNDeadline) {
  Harness h = MakeHarness(QuietParams(), 1);
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  SubmitArgs args;
  args.tenant = 1;
  args.input = MakeInput(0);
  for (const double arrival : {kNaN, kInf, -kInf}) {
    args.arrival_ns = arrival;
    EXPECT_EQ(h.service->Submit(args).status().code(),
              ErrorCode::kInvalidArgument)
        << arrival;
  }
  args.arrival_ns = 0.0;
  args.deadline_ns = kNaN;
  EXPECT_EQ(h.service->Submit(args).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(h.service->stats().rejected_invalid, 4u);

  args.deadline_ns = serve::kNoDeadline;  // +inf: no deadline, still valid
  ASSERT_TRUE(h.service->Submit(args).ok());
  EXPECT_GT(h.service->RunUntilIdle(), 0u);
  ASSERT_EQ(h.responses.size(), 1u);
  EXPECT_TRUE(h.responses[0].served());
  EXPECT_TRUE(std::isfinite(h.responses[0].latency_ns()));
  EXPECT_TRUE(std::isfinite(h.service->virtual_now_ns()));
}

// ServeParams boundary fuzz, in the style of dpe_test's ParamsFuzzTest:
// each real-valued field, one at a time, takes NaN, +-inf, 0, -1, the
// largest double and each bound with its neighbours. Validate must reject
// every non-finite value, and every accepted value must survive Create plus
// a short open-loop run under a persistent degrading fault (so retries,
// backoff and SLA relocation all run) with finite response latencies.
using ServeFuzzValue = fuzz::FuzzValue<ServeParams>;

template <typename Get>
void AddServeField(std::vector<ServeFuzzValue>& values, const char* name,
                   Get get, std::initializer_list<double> bounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0,  -1.0, std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::quiet_NaN(),
                           kInf, -kInf};
  for (const double b : bounds) {
    v.insert(v.end(), {b, std::nextafter(b, -kInf), std::nextafter(b, kInf)});
  }
  for (const double x : v) {
    std::ostringstream label;
    label << name << "=" << std::setprecision(17) << x;
    values.push_back({label.str(), [get, x](ServeParams& p) { get(p) = x; }});
  }
}

#define CIM_SERVE_FIELD(values, path, ...)                           \
  AddServeField(values, #path,                                       \
                [](ServeParams& p) -> double& { return p.path; }, \
                {__VA_ARGS__})

ServeParams ServeFuzzBase() {
  ServeParams params = QuietParams();
  params.retry.max_retries = 2;
  params.sla.enabled = true;
  params.sla.min_samples = 4;
  params.sla.evaluate_every = 4;
  return params;
}

// Runs `params` open-loop for `requests` requests under DegradeScenario and
// expects every response latency and the virtual clock to stay finite.
void ExpectOpenLoopRunIsFinite(const ServeParams& params,
                               const std::string& what,
                               std::uint64_t requests = 12) {
  Harness h = MakeHarness(params, 1, nullptr, /*fault_tolerant=*/true,
                          /*spares=*/0);
  ASSERT_TRUE(h.service != nullptr) << what;
  CollectResponses(h);
  ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
  FaultInjector injector(DegradeScenario());
  ASSERT_TRUE(h.accelerator->AttachFaultInjector(&injector).ok());
  ASSERT_TRUE(injector.Arm().ok());
  std::size_t admitted = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(i);
    args.arrival_ns = static_cast<double>(i) * 50e3;
    // A quarantined tenant's submissions are refused (kUnavailable).
    if (h.service->Submit(args).ok()) ++admitted;
  }
  static_cast<void>(h.service->RunUntilIdle());
  EXPECT_GT(admitted, 0u) << what;
  EXPECT_EQ(h.responses.size(), admitted) << what;
  for (const Response& r : h.responses) {
    EXPECT_TRUE(std::isfinite(r.latency_ns()) && r.latency_ns() >= 0.0)
        << what << ": latency " << r.latency_ns();
  }
  EXPECT_TRUE(std::isfinite(h.service->virtual_now_ns())) << what;
}

TEST(ServeParamsFuzzTest, EveryAcceptedSingleFieldBoundaryRuns) {
  std::vector<ServeFuzzValue> values;
  CIM_SERVE_FIELD(values, batching.window_ns, 25e3, 800e3);
  CIM_SERVE_FIELD(values, batching.min_window_ns, 200e3, 800e3);
  CIM_SERVE_FIELD(values, retry.base_backoff_ns, 1e9);
  CIM_SERVE_FIELD(values, retry.jitter_fraction, 1.0);
  CIM_SERVE_FIELD(values, sla.target_latency_ns, 2e6);
  CIM_SERVE_FIELD(values, sla.release_fraction, 1.0);
  CIM_SERVE_FIELD(values, sla.max_degraded_fraction, 1.0);
  CIM_SERVE_FIELD(values, sla.quarantine_ns, 2e6);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const ServeFuzzValue& value : values) {
    ServeParams params = ServeFuzzBase();
    value.apply(params);
    const bool non_finite = value.label.find("nan") != std::string::npos ||
                            value.label.find("inf") != std::string::npos;
    if (!params.Validate().ok()) {
      ++rejected;
      continue;
    }
    EXPECT_FALSE(non_finite) << value.label << " accepted";
    ++accepted;
    ExpectOpenLoopRunIsFinite(params, value.label);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// The integer fields, one at a time, at their boundary values
// (boundary_values.h: 0, -1, the type's min and max, and each bound +/-1).
// Each field's first bound is 1, so 0, 1 and 2 are covered; the admission
// bounds are the base's own watermarks (8 <= 64 <= 256) and the SLA counts
// sit at the base's 4. Runs are 5 requests long: every one of them retries
// up to max_retries times, so 64 retries already cost 320 inferences.
TEST(ServeParamsFuzzTest, EveryAcceptedIntegerBoundaryRuns) {
  std::vector<ServeFuzzValue> values;
  for (const auto& field :
       {CIM_FIELD_VALUES(ServeParams, batching.max_batch, 1, 4096),
        CIM_FIELD_VALUES(ServeParams, retry.max_retries, 1, 64),
        CIM_FIELD_VALUES(ServeParams, admission.watermark, 1, 8, 256),
        CIM_FIELD_VALUES(ServeParams, admission.min_watermark, 1, 64),
        CIM_FIELD_VALUES(ServeParams, admission.max_watermark, 1, 64),
        CIM_FIELD_VALUES(ServeParams, sla.min_samples, 1, 4),
        CIM_FIELD_VALUES(ServeParams, sla.evaluate_every, 1, 4)}) {
    values.insert(values.end(), field.begin(), field.end());
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const ServeFuzzValue& value : values) {
    ServeParams params = ServeFuzzBase();
    value.apply(params);
    if (!params.Validate().ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    ExpectOpenLoopRunIsFinite(params, value.label, 5);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

#undef CIM_SERVE_FIELD

// The SLA loop steps the watermark by 8 within [min, max]: at the type's
// largest value a step must saturate, not wrap (SIZE_MAX + 8 read 7).
TEST(DpeServiceTest, WatermarkStepsSaturateAtTheTypeMax) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const bool scale_down : {true, false}) {
    ServeParams params = QuietParams();
    params.sla.enabled = true;
    params.sla.min_samples = 1;
    params.sla.evaluate_every = 1;
    // Far above every latency (scale down), or far below it (scale up).
    params.sla.target_latency_ns = scale_down ? 1e12 : 1e-3;
    params.admission.watermark = kMax;
    params.admission.max_watermark = kMax;
    params.admission.min_watermark = scale_down ? 8 : kMax - 3;
    ASSERT_TRUE(params.Validate().ok());
    Harness h = MakeHarness(params, 1);
    CollectResponses(h);
    ASSERT_TRUE(h.service->AddTenant({.id = 1, .name = "a"}).ok());
    SubmitArgs args;
    args.tenant = 1;
    args.input = MakeInput(1);
    ASSERT_TRUE(h.service->Submit(args).ok());
    static_cast<void>(h.service->RunUntilIdle());
    const auto stats = h.service->stats();
    EXPECT_EQ(scale_down ? stats.sla_scale_down : stats.sla_scale_up, 1u);
    EXPECT_EQ(stats.watermark, scale_down ? kMax : kMax - 3);
  }
}

// A retry waits base * 2^(attempt-1): past 64 retries nothing keeps that
// finite, and a pump reserves max_batch slots, so both are bounded.
TEST(ServeParamsFuzzTest, RetryAndBatchCountsAreBounded) {
  ServeParams params = ServeFuzzBase();
  params.retry.max_retries = 64;
  EXPECT_TRUE(params.Validate().ok());
  for (const std::uint32_t retries :
       {65u, 2000u, std::numeric_limits<std::uint32_t>::max()}) {
    params.retry.max_retries = retries;
    EXPECT_EQ(params.Validate().code(), ErrorCode::kInvalidArgument)
        << "max_retries=" << retries;
  }
  // The longest wait the bound allows stays finite at the largest base and
  // jitter.
  serve::RetryParams longest;
  longest.max_retries = 64;
  longest.base_backoff_ns = kMaxEventLatencyNs;
  longest.jitter_fraction = 1.0;
  ASSERT_TRUE(longest.Validate().ok());
  EXPECT_TRUE(
      std::isfinite(serve::BackoffNs(longest, 1, 1, longest.max_retries)));
  params = ServeFuzzBase();
  params.batching.max_batch = 4096;
  EXPECT_TRUE(params.Validate().ok());
  for (const std::size_t batch :
       {std::size_t{4097}, std::numeric_limits<std::size_t>::max()}) {
    params.batching.max_batch = batch;
    EXPECT_EQ(params.Validate().code(), ErrorCode::kInvalidArgument)
        << "max_batch=" << batch;
  }
}

}  // namespace
}  // namespace cim
