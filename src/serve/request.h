// Request/response types for the cim::serve serving plane.
//
// The service is a deterministic discrete-event machine over *virtual*
// nanoseconds: every request carries its arrival timestamp, the batcher
// advances a virtual clock from arrival to dispatch to completion, and the
// service time of a batch comes from the accelerator's own simulated
// InferResult::cost — never from the host wall clock. Latencies, shedding
// decisions and retry schedules are therefore pure functions of (seed,
// submission sequence) and replay bit-identically; see DESIGN.md § Serving.
#pragma once

#include <cstdint>
#include <limits>

#include "common/stats.h"
#include "dpe/accelerator.h"
#include "nn/tensor.h"

namespace cim::serve {

// A tenant is the unit the SLA loop judges: each has its own SlaWindow
// (service.h).
using TenantId = std::uint64_t;
using RequestId = std::uint64_t;

// "No deadline": +inf compares above every virtual timestamp.
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

// Terminal disposition of one *admitted* request. Admission failures
// (watermark backpressure, tenant-queue capacity, capability rejection)
// are synchronous Submit errors and never produce a Response.
enum class Outcome : std::uint8_t {
  kOk = 0,        // served; fault report clean
  kOkDegraded,    // served, but recovery exhausted retries — result flagged
  kShedDeadline,  // deadline expired before dispatch; never executed
  kFailed,        // accelerator refused the batch (malformed input)
};

struct Response {
  RequestId id = 0;
  TenantId tenant = 0;
  Outcome outcome = Outcome::kOk;
  nn::Tensor output;  // empty when shed or failed
  // Accelerator-accounted cost of the final attempt (zero when shed).
  CostReport cost;
  dpe::FaultReport fault_report;
  // Dispatches this request consumed; 1 = served on the first attempt.
  std::uint32_t attempts = 1;
  double arrival_ns = 0.0;     // virtual submission time
  double dispatch_ns = 0.0;    // virtual time the final batch formed
  double completion_ns = 0.0;  // virtual time the result left the service

  [[nodiscard]] double latency_ns() const {
    return completion_ns - arrival_ns;
  }
  [[nodiscard]] bool served() const {
    return outcome == Outcome::kOk || outcome == Outcome::kOkDegraded;
  }
};

}  // namespace cim::serve
