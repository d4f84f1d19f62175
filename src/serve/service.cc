#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace cim::serve {
namespace {

// SLA-loop adaptation: a kScaleUp verdict multiplies the batching window by
// kWindowShrink and lowers the watermark by kWatermarkStep; kScaleDown
// multiplies by kWindowGrow (up to kMaxWindowNs) and raises it by the step.
constexpr double kMaxWindowNs = 800e3;
constexpr std::size_t kWatermarkStep = 8;
constexpr double kWindowShrink = 0.5;
constexpr double kWindowGrow = 1.5;

// The terminal response for `request`: it consumed `attempts` dispatches,
// the last at `dispatch_ns`, and left the service at `completion_ns`.
Response MakeResponse(const PendingRequest& request, Outcome outcome,
                      std::uint32_t attempts, double dispatch_ns,
                      double completion_ns) {
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.outcome = outcome;
  response.attempts = attempts;
  response.arrival_ns = request.first_arrival_ns;
  response.dispatch_ns = dispatch_ns;
  response.completion_ns = completion_ns;
  return response;
}

}  // namespace

Status BatchingParams::Validate() const {
  if (max_batch == 0 || max_batch > 4096) {
    return InvalidArgument("max_batch must be in [1, 4096]");
  }
  if (!AllFinite({window_ns, min_window_ns}) || window_ns < 0.0 ||
      min_window_ns < 0.0) {
    return InvalidArgument("batching windows must be finite and >= 0");
  }
  if (min_window_ns > kMaxWindowNs) {
    return InvalidArgument("min_window_ns > 800 us");
  }
  if (window_ns < min_window_ns || window_ns > kMaxWindowNs) {
    return InvalidArgument("window_ns outside [min_window_ns, 800 us]");
  }
  return Status::Ok();
}

Status AdmissionParams::Validate() const {
  if (watermark == 0) return InvalidArgument("watermark must be > 0");
  if (min_watermark == 0 || min_watermark > max_watermark) {
    return InvalidArgument("bad watermark bounds");
  }
  if (watermark < min_watermark || watermark > max_watermark) {
    return InvalidArgument("watermark outside [min_watermark, max_watermark]");
  }
  return Status::Ok();
}

Status RetryParams::Validate() const {
  // A retry waits base * 2^(attempt-1) * (1 + jitter): finite ceilings keep
  // that wait, and so every response latency, finite.
  if (max_retries > 64) return InvalidArgument("max_retries must be <= 64");
  if (!AllFinite({base_backoff_ns, jitter_fraction})) {
    return InvalidArgument("retry backoff must be finite");
  }
  if (base_backoff_ns <= 0.0 || base_backoff_ns > kMaxEventLatencyNs) {
    return InvalidArgument("base_backoff_ns must be in (0, 1 s]");
  }
  if (jitter_fraction < 0.0 || jitter_fraction > 1.0) {
    return InvalidArgument("jitter_fraction must be in [0, 1]");
  }
  return Status::Ok();
}

Status SlaLoopParams::Validate() const {
  if (!enabled) return Status::Ok();
  if (!AllFinite({target_latency_ns, release_fraction, max_degraded_fraction,
                  quarantine_ns})) {
    return InvalidArgument("SLA parameters must be finite");
  }
  if (target_latency_ns <= 0.0) {
    return InvalidArgument("target_latency_ns must be > 0");
  }
  if (release_fraction <= 0.0 || release_fraction >= 1.0) {
    return InvalidArgument("release_fraction must be in (0, 1)");
  }
  if (max_degraded_fraction < 0.0 || max_degraded_fraction > 1.0) {
    return InvalidArgument("max_degraded_fraction must be in [0, 1]");
  }
  if (min_samples <= 0) return InvalidArgument("min_samples must be > 0");
  if (evaluate_every == 0) {
    return InvalidArgument("evaluate_every must be > 0");
  }
  if (quarantine_ns < 0.0) {
    return InvalidArgument("quarantine_ns must be >= 0");
  }
  return Status::Ok();
}

Status ServeParams::Validate() const {
  if (Status s = batching.Validate(); !s.ok()) return s;
  if (Status s = admission.Validate(); !s.ok()) return s;
  if (Status s = retry.Validate(); !s.ok()) return s;
  if (Status s = sla.Validate(); !s.ok()) return s;
  return Status::Ok();
}

double BackoffNs(const RetryParams& retry, std::uint64_t seed, RequestId id,
                 std::uint32_t attempt) {
  CIM_CHECK(attempt >= 1);
  const double wait =
      retry.base_backoff_ns * std::ldexp(1.0, static_cast<int>(attempt) - 1);
  Rng rng(DeriveSeed(DeriveSeed(seed, id), attempt));
  return wait * (1.0 + retry.jitter_fraction * rng.NextDouble());
}

SlaAction JudgeSla(const SlaLoopParams& sla, SlaWindow& window) {
  const std::uint64_t results = window.latency_ns.count();
  if (results < static_cast<std::uint64_t>(sla.min_samples)) {
    return SlaAction::kNone;
  }
  SlaAction action = SlaAction::kNone;
  const double mean_ns = window.latency_ns.mean();
  if (mean_ns > sla.target_latency_ns) {
    action = SlaAction::kScaleUp;
  } else if (mean_ns < sla.release_fraction * sla.target_latency_ns) {
    action = SlaAction::kScaleDown;
  }
  const double degraded_fraction = static_cast<double>(window.degraded) /
                                   static_cast<double>(results);
  if (degraded_fraction > sla.max_degraded_fraction) {
    action = SlaAction::kRelocate;
  }
  window = SlaWindow{};
  return action;
}

Expected<std::unique_ptr<DpeService>> DpeService::Create(
    const ServeParams& params, dpe::DpeAccelerator* accelerator,
    const security::CapabilityAuthority* authority) {
  if (accelerator == nullptr) {
    return InvalidArgument("accelerator must not be null");
  }
  if (Status s = params.Validate(); !s.ok()) return s;
  return std::unique_ptr<DpeService>(
      new DpeService(params, accelerator, authority));
}

DpeService::DpeService(const ServeParams& params,
                       dpe::DpeAccelerator* accelerator,
                       const security::CapabilityAuthority* authority)
    : params_(params),
      accelerator_(accelerator),
      authority_(authority),
      window_ns_(params.batching.window_ns),
      watermark_(params.admission.watermark) {}

Status DpeService::AddTenant(const TenantConfig& config) {
  return scheduler_.AddTenant(config);
}

Status DpeService::SetResponseHandler(ResponseHandler handler) {
  handler_ = std::move(handler);
  return Status::Ok();
}

Expected<RequestId> DpeService::Submit(const SubmitArgs& args) {
  const TenantConfig* tenant = scheduler_.Find(args.tenant);
  if (tenant == nullptr) return NotFound("unknown tenant");
  ++stats_.submitted;

  if (!args.input.valid() ||
      (params_.expected_input_elements != 0 &&
       args.input.size() != params_.expected_input_elements)) {
    ++stats_.rejected_invalid;
    return InvalidArgument("request tensor has the wrong shape");
  }
  // A NaN arrival passes the `< 0` "now" test and a NaN deadline reads as
  // "no deadline"; an infinite arrival would move the clock to +inf.
  if (!std::isfinite(args.arrival_ns) || std::isnan(args.deadline_ns)) {
    ++stats_.rejected_invalid;
    return InvalidArgument("arrival_ns must be finite, deadline_ns not NaN");
  }
  if (authority_ != nullptr) {
    if (args.capability.partition != tenant->partition) {
      ++stats_.rejected_permission;
      return PermissionDenied("capability partition does not match tenant");
    }
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(args.input.size()) * sizeof(double);
    if (Status s = authority_->CheckAccess(args.capability,
                                           args.capability.base, bytes,
                                           security::Permission::kExecute);
        !s.ok()) {
      ++stats_.rejected_permission;
      return s;
    }
  }

  const double arrival =
      args.arrival_ns < 0.0 ? virtual_now_ : args.arrival_ns;
  if (const auto it = quarantined_until_.find(args.tenant);
      it != quarantined_until_.end()) {
    if (arrival < it->second) {
      ++stats_.rejected_quarantine;
      return Unavailable("tenant quarantined by SLA relocation");
    }
    quarantined_until_.erase(it);
  }
  if (scheduler_.TotalDepth() >= watermark_) {
    ++stats_.rejected_watermark;
    return Unavailable("queue depth watermark exceeded");
  }

  PendingRequest request;
  request.id = next_id_;
  request.tenant = args.tenant;
  request.input = args.input;
  request.arrival_ns = arrival;
  request.deadline_ns = arrival + args.deadline_ns;
  request.first_arrival_ns = arrival;
  if (Status s = scheduler_.Enqueue(std::move(request)); !s.ok()) {
    ++stats_.rejected_capacity;
    return s;
  }
  const RequestId id = next_id_++;
  ++stats_.admitted;
  return id;
}

bool DpeService::PumpOnce() {
  if (scheduler_.TotalDepth() == 0) return false;

  // Batch formation is a discrete-event jump: dispatch when the oldest
  // queued request has waited window_ns, or as soon as a full batch has
  // accumulated, whichever the queued arrivals say comes first.
  const double oldest = scheduler_.EarliestArrival();
  const double now = std::max(virtual_now_, oldest);
  double dispatch = std::max(now, oldest + window_ns_);
  const double full_at =
      scheduler_.NthArrival(params_.batching.max_batch - 1);
  if (full_at <= dispatch) dispatch = std::max(now, full_at);
  virtual_now_ = dispatch;

  // Shed visible requests whose deadline expired before dispatch.
  std::vector<Response> shed;
  PendingRequest expired;
  while (scheduler_.PopExpired(virtual_now_, &expired)) {
    ++stats_.shed_deadline;
    shed.push_back(MakeResponse(expired, Outcome::kShedDeadline,
                                expired.attempt, virtual_now_,
                                virtual_now_));
  }

  // Weighted-fair pop of up to max_batch visible requests.
  std::vector<PendingRequest> batch;
  batch.reserve(params_.batching.max_batch);
  PendingRequest next;
  while (batch.size() < params_.batching.max_batch &&
         scheduler_.PopVisible(virtual_now_, &next)) {
    batch.push_back(std::move(next));
  }
  if (!batch.empty()) {
    ++stats_.batches;
    stats_.batched_elements += batch.size();
  }

  for (const Response& response : shed) Deliver(response);
  if (batch.empty()) return true;

  std::vector<nn::Tensor> inputs;
  inputs.reserve(batch.size());
  for (const PendingRequest& request : batch) inputs.push_back(request.input);
  auto results = accelerator_->InferBatch(inputs);

  std::vector<Response> done;
  std::vector<PendingRequest> retries;
  if (!results.ok()) {
    // The accelerator refused the whole batch (malformed input slipped
    // past admission). Fail the elements; the service stays up.
    for (const PendingRequest& request : batch) {
      ++stats_.failed;
      done.push_back(MakeResponse(request, Outcome::kFailed,
                                  request.attempt + 1, dispatch,
                                  virtual_now_));
    }
  } else {
    // Batch elements execute concurrently on replicated tile sets in the
    // modeled fabric: the batch completes when its slowest element does.
    double batch_latency_ns = 0.0;
    for (const dpe::InferResult& result : *results) {
      batch_latency_ns = std::max(batch_latency_ns, result.cost.latency_ns);
    }
    const double completion = virtual_now_ + batch_latency_ns;
    virtual_now_ = completion;

    for (std::size_t i = 0; i < batch.size(); ++i) {
      PendingRequest& request = batch[i];
      dpe::InferResult& result = (*results)[i];
      const bool clean = result.fault_report.clean();
      if (!clean && request.attempt < params_.retry.max_retries) {
        // Fault-flagged: re-dispatch after deterministic backoff. The
        // accelerator's wave-boundary remap runs underneath, so a retry
        // often lands on a repaired (spare) tile.
        ++stats_.retries;
        PendingRequest retry = std::move(request);
        retry.attempt += 1;
        retry.arrival_ns = completion + BackoffNs(params_.retry, params_.seed,
                                                  retry.id, retry.attempt);
        retries.push_back(std::move(retry));
        continue;
      }
      Response response = MakeResponse(
          request, clean ? Outcome::kOk : Outcome::kOkDegraded,
          request.attempt + 1, dispatch, completion);
      response.output = std::move(result.output);
      response.cost = result.cost;
      response.fault_report = result.fault_report;
      if (clean) {
        ++stats_.completed_clean;
      } else {
        ++stats_.completed_degraded;
      }
      sla_windows_[request.tenant].Add(response.latency_ns(), !clean);
      ++responses_since_eval_;
      done.push_back(std::move(response));
    }
    for (PendingRequest& retry : retries) {
      // Retries bypass the capacity check: backoff must not be starvable
      // by fresh admissions.
      Status enqueued = scheduler_.Enqueue(std::move(retry), /*force=*/true);
      CIM_CHECK(enqueued.ok());
    }
    if (params_.sla.enabled &&
        responses_since_eval_ >= params_.sla.evaluate_every) {
      RunSlaLoop();
    }
  }
  for (const Response& response : done) Deliver(response);
  return true;
}

void DpeService::RunSlaLoop() {
  responses_since_eval_ = 0;
  for (auto& [tenant, window] : sla_windows_) {
    switch (JudgeSla(params_.sla, window)) {
      case SlaAction::kScaleUp: {
        // Violating latency: cut queueing delay (smaller window) and shed
        // load earlier (lower watermark).
        window_ns_ = std::max(params_.batching.min_window_ns,
                              window_ns_ * kWindowShrink);
        // watermark_ stays in [min_watermark, max_watermark], so neither
        // step can wrap, even at the type's largest value.
        watermark_ -= std::min(kWatermarkStep,
                               watermark_ - params_.admission.min_watermark);
        ++stats_.sla_scale_up;
        break;
      }
      case SlaAction::kScaleDown:
        // Comfortably under target: recover batching efficiency and admit
        // more load.
        window_ns_ = std::min(kMaxWindowNs, window_ns_ * kWindowGrow);
        watermark_ += std::min(kWatermarkStep,
                               params_.admission.max_watermark - watermark_);
        ++stats_.sla_scale_down;
        break;
      case SlaAction::kRelocate:
        // Quality floor violated: move the stream off the degraded
        // hardware — here, stop feeding it until the quarantine passes
        // (the accelerator's spare-tile remap repairs underneath).
        quarantined_until_[tenant] =
            virtual_now_ + params_.sla.quarantine_ns;
        ++stats_.sla_relocations;
        break;
      case SlaAction::kNone:
        break;
    }
  }
}

void DpeService::Deliver(const Response& response) {
  if (handler_) handler_(response);
}

std::size_t DpeService::RunUntilIdle() {
  std::size_t pumped = 0;
  while (PumpOnce()) ++pumped;
  return pumped;
}

ServiceStats DpeService::stats() const {
  ServiceStats snapshot = stats_;
  snapshot.window_ns = window_ns_;
  snapshot.watermark = watermark_;
  return snapshot;
}

}  // namespace cim::serve
