// cim::serve::DpeService — a long-running inference service over
// DpeAccelerator::InferBatch.
//
// Control plane (all decisions in *virtual* nanoseconds, request.h):
//   * Dynamic batching: queued requests coalesce until either max_batch
//     requests have arrived or the oldest has waited window_ns; the window
//     is a discrete-event jump, so the dispatch instant is a pure function
//     of the queue contents.
//   * Admission control / backpressure: Submit rejects with kUnavailable
//     once total queue depth reaches the watermark, with kCapacityExceeded
//     when the tenant's own bounded queue is full, and always sheds
//     (without executing) any request whose deadline expired before
//     dispatch.
//   * Retry with deterministic exponential backoff + jitter: a result whose
//     fault report is not clean re-enters the queue at
//     completion + BackoffNs(retry, seed, id, attempt); the jitter stream
//     is DeriveSeed-keyed so replays are bit-identical. When retries are
//     exhausted the flagged-degrade result is delivered as kOkDegraded —
//     the accelerator's own retry -> spare-tile remap -> degrade escalation
//     (dpe/accelerator.h) has by then already run underneath.
//   * SLA closed loop (§IV.C): every response's latency and quality lands
//     in its tenant's SlaWindow; every evaluate_every responses JudgeSla
//     gives each tenant a verdict — kScaleUp shrinks the batching window
//     and lowers the admission watermark (shed load, cut queueing delay),
//     kScaleDown relaxes both, kRelocate quarantines the tenant.
//   * Multi-tenant isolation: per-tenant bounded queues under stride-WFQ
//     (tenant.h), with capability-token checks (security/capability.h)
//     when an authority is wired.
//
// Threading: DpeService is called from one thread, which pumps the loop
// with RunUntilIdle; the response handler runs on that thread and may
// Submit re-entrantly. Host parallelism lives only in the accelerator's
// own thread pool, which runs each formed batch. Because batch partitioning
// never affects output bits (noise streams are keyed by global call index,
// dpe/accelerator.h), outputs AND virtual latencies are bit-identical at
// any accelerator thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "dpe/accelerator.h"
#include "security/capability.h"
#include "serve/request.h"
#include "serve/tenant.h"

namespace cim::serve {

struct BatchingParams {
  std::size_t max_batch = 8;
  double window_ns = 200e3;  // initial coalescing window
  // Lower bound for the SLA loop's window adaptation; the upper bound is
  // fixed at 800 us (service.cc).
  double min_window_ns = 25e3;

  [[nodiscard]] Status Validate() const;
};

struct AdmissionParams {
  std::size_t watermark = 64;  // initial total-queue-depth watermark
  // Bounds for the SLA loop's watermark adaptation.
  std::size_t min_watermark = 8;
  std::size_t max_watermark = 256;

  [[nodiscard]] Status Validate() const;
};

struct RetryParams {
  // Service-level re-dispatches of a fault-flagged result (on top of the
  // accelerator's internal per-tile retry).
  std::uint32_t max_retries = 2;
  double base_backoff_ns = 100e3;  // first retry waits ~base, then doubles
  double jitter_fraction = 0.25;   // uniform extra in [0, fraction * wait)

  [[nodiscard]] Status Validate() const;
};

// The one SLA target, shared by every tenant.
struct SlaLoopParams {
  bool enabled = true;
  // Hysteresis: scale up above the target mean latency, scale down below
  // release_fraction * target.
  double target_latency_ns = 2e6;
  double release_fraction = 0.5;
  // Quality floor: the fraction of a window's results that may be degraded
  // (non-clean fault report) before the tenant is relocated. 0.0 relocates
  // on any degraded result; 1.0 turns quality enforcement off.
  double max_degraded_fraction = 0.25;
  // Responses a tenant's window must hold before it is judged.
  int min_samples = 16;
  // Responses between SLA evaluation rounds.
  std::uint64_t evaluate_every = 32;
  // kRelocate quarantine: submissions for the stream are rejected
  // (kUnavailable) until virtual time passes the quarantine horizon.
  double quarantine_ns = 2e6;

  [[nodiscard]] Status Validate() const;
};

struct ServeParams {
  BatchingParams batching;
  AdmissionParams admission;
  RetryParams retry;
  SlaLoopParams sla;
  // Root of the DeriveSeed tree for backoff jitter.
  std::uint64_t seed = 1;
  // Expected elements per request tensor; a mismatched request is rejected
  // at Submit (kInvalidArgument) so it cannot poison a whole batch. 0
  // disables the check.
  std::size_t expected_input_elements = 0;

  [[nodiscard]] Status Validate() const;
};

struct SubmitArgs {
  TenantId tenant = 0;
  nn::Tensor input;
  // Virtual arrival time; negative = "now" (the service's virtual frontier).
  double arrival_ns = -1.0;
  // Deadline relative to arrival; kNoDeadline disables shedding for it.
  double deadline_ns = kNoDeadline;
  // Checked against the tenant's partition when an authority is wired.
  security::Capability capability;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_watermark = 0;   // kUnavailable backpressure
  std::uint64_t rejected_capacity = 0;    // tenant queue full
  std::uint64_t rejected_permission = 0;  // capability check failed
  std::uint64_t rejected_quarantine = 0;  // SLA kRelocate quarantine
  std::uint64_t rejected_invalid = 0;     // malformed input
  std::uint64_t shed_deadline = 0;
  std::uint64_t completed_clean = 0;
  std::uint64_t completed_degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_elements = 0;  // mean batch = elements / batches
  std::uint64_t sla_scale_up = 0;
  std::uint64_t sla_scale_down = 0;
  std::uint64_t sla_relocations = 0;
  // Current adaptive state.
  double window_ns = 0.0;
  std::size_t watermark = 0;
};

enum class SlaAction : std::uint8_t {
  kNone = 0,
  kScaleUp,    // mean latency above target
  kScaleDown,  // mean latency below release_fraction * target
  // Too many degraded results: move the tenant off the failing hardware
  // rather than adding more of it.
  kRelocate,
};

// One tenant's responses since its last SLA verdict.
struct SlaWindow {
  RunningStat latency_ns;  // its count() is the window's result count
  std::uint64_t degraded = 0;

  void Add(double latency, bool was_degraded) {
    latency_ns.Add(latency);
    if (was_degraded) ++degraded;
  }
};

// The SLA rule. A window is judged only once it holds sla.min_samples
// results, and is reset then; a smaller one gets kNone and keeps
// filling. A degraded share above the quality floor overrides the latency
// verdict: a tenant can be fast *because* its tiles degraded, and adding
// capacity on faulty hardware just produces degraded results faster.
[[nodiscard]] SlaAction JudgeSla(const SlaLoopParams& sla,
                                 SlaWindow& window);

// Deterministic retry backoff: base * 2^(attempt-1) plus a jitter drawn
// from Rng(DeriveSeed(DeriveSeed(seed, request id), attempt)) —
// replay-stable and independent of every other stream in the run. attempt
// counts prior dispatches, so the first retry (attempt = 1) waits ~base
// and each further retry doubles it.
[[nodiscard]] double BackoffNs(const RetryParams& retry, std::uint64_t seed,
                               RequestId id, std::uint32_t attempt);

// Called once per terminal Response. Runs on the caller of RunUntilIdle in
// deterministic order; it may call Submit re-entrantly (closed-loop
// clients).
using ResponseHandler = std::function<void(const Response&)>;

class DpeService {
 public:
  // `accelerator` (and `authority`, when given) must outlive the service.
  [[nodiscard]] static Expected<std::unique_ptr<DpeService>> Create(
      const ServeParams& params, dpe::DpeAccelerator* accelerator,
      const security::CapabilityAuthority* authority = nullptr);

  DpeService(const DpeService&) = delete;
  DpeService& operator=(const DpeService&) = delete;

  // Registers a tenant; every tenant is held to params.sla.
  [[nodiscard]] Status AddTenant(const TenantConfig& config);
  // Must be set before the first Submit.
  [[nodiscard]] Status SetResponseHandler(ResponseHandler handler);

  // Admission-checked enqueue. Errors: kNotFound (unknown tenant),
  // kInvalidArgument (malformed input), kPermissionDenied (capability),
  // kUnavailable (watermark or quarantine), kCapacityExceeded (tenant queue
  // full).
  [[nodiscard]] Expected<RequestId> Submit(const SubmitArgs& args);

  // Pumps batches on the calling thread until every queue is empty (retries
  // included); returns batches dispatched.
  [[nodiscard]] std::size_t RunUntilIdle();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] double virtual_now_ns() const { return virtual_now_; }

 private:
  DpeService(const ServeParams& params, dpe::DpeAccelerator* accelerator,
             const security::CapabilityAuthority* authority);

  // One dispatch cycle: advance the virtual clock to the next dispatch
  // instant, shed expired requests, pop a weighted-fair batch, execute it,
  // deliver responses and queue retries. Returns false when idle.
  bool PumpOnce();
  // Judges every tenant's window, in ascending id order, and applies the
  // verdicts.
  void RunSlaLoop();
  void Deliver(const Response& response);

  const ServeParams params_;
  dpe::DpeAccelerator* const accelerator_;        // not owned
  const security::CapabilityAuthority* const authority_;  // not owned

  TenantScheduler scheduler_;
  std::map<TenantId, SlaWindow> sla_windows_;
  std::map<TenantId, double> quarantined_until_;
  double virtual_now_ = 0.0;
  RequestId next_id_ = 1;
  double window_ns_ = 0.0;       // adaptive
  std::size_t watermark_ = 0;    // adaptive
  std::uint64_t responses_since_eval_ = 0;
  ServiceStats stats_;
  ResponseHandler handler_;
};

}  // namespace cim::serve
