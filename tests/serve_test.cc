// cim::serve::DpeService pins: dynamic-batching coalescing, watermark
// rejection under overload, expired-deadline shedding, the deterministic
// retry-backoff schedule, per-tenant weighted-fair isolation, capability
// enforcement, the SLA closed loop, and bit-identity of outputs AND
// virtual latencies across accelerator thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

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
using serve::ServeParams;
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

}  // namespace
}  // namespace cim
