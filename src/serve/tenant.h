// Multi-tenant serving state: per-tenant bounded FIFO queues dispatched by
// deterministic stride scheduling (weighted fair queueing).
//
// Each tenant is an isolation domain: its own queue bound (so one tenant's
// burst cannot evict another's requests), its own capability partition
// (service.h checks presented tokens against it), and a fair-share weight —
// a tenant with weight 2 receives twice the dispatch slots of a weight-1
// tenant under contention. Scheduling is stride-based: every dispatch
// advances the tenant's pass by 1/weight, and the next dispatch goes to the
// lowest (pass, tenant id) with a visible request — deterministic, no RNG,
// no wall clock.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/status.h"
#include "nn/tensor.h"
#include "serve/request.h"

namespace cim::serve {

struct TenantConfig {
  TenantId id = 0;
  std::string name;
  // Weighted-fair share under contention; must be positive.
  double weight = 1.0;
  // Bound on this tenant's own queue, checked after the service-wide
  // admission watermark; must be positive.
  std::size_t queue_capacity = 64;
  // Capability isolation domain; requests must present a token sealed for
  // this partition when the service is wired to an authority.
  std::uint32_t partition = 0;

  [[nodiscard]] Status Validate() const {
    if (weight <= 0.0) return InvalidArgument("tenant weight must be > 0");
    if (queue_capacity == 0) {
      return InvalidArgument("tenant queue_capacity must be > 0");
    }
    return Status::Ok();
  }
};

// One admitted request waiting for dispatch (service-internal). Retries
// re-enter the queue with `arrival_ns` pushed out by the backoff schedule
// while `first_arrival_ns` keeps the client-visible submission time.
struct PendingRequest {
  RequestId id = 0;
  TenantId tenant = 0;
  nn::Tensor input;
  double arrival_ns = 0.0;            // virtual; backoff time for retries
  double deadline_ns = kNoDeadline;   // absolute virtual
  double first_arrival_ns = 0.0;
  std::uint32_t attempt = 0;          // dispatches already consumed
};

// Per-tenant queues plus the stride scheduler. Not thread-safe — the
// owning DpeService is called from one thread.
class TenantScheduler {
 public:
  [[nodiscard]] Status AddTenant(const TenantConfig& config);
  [[nodiscard]] const TenantConfig* Find(TenantId id) const;

  // Queue the request (kCapacityExceeded when the tenant queue is full and
  // `force` is false — retries re-enter with force so backoff can never be
  // starved by fresh admissions).
  [[nodiscard]] Status Enqueue(PendingRequest request, bool force = false);

  // Arrival time of the earliest queued request; kNoDeadline when empty.
  [[nodiscard]] double EarliestArrival() const;
  // Arrival of the n-th earliest queued request (0-based) across all
  // tenants; kNoDeadline when fewer than n+1 are queued. Drives the
  // "dispatch early once a full batch has accumulated" rule.
  [[nodiscard]] double NthArrival(std::size_t n) const;

  // Pop the next request visible at virtual time `now` in weighted-fair
  // order; false when nothing has arrived yet.
  [[nodiscard]] bool PopVisible(double now, PendingRequest* out);
  // Pop a request visible at `now` whose deadline has already expired
  // (dispatching it would be wasted work); false when none.
  [[nodiscard]] bool PopExpired(double now, PendingRequest* out);

  [[nodiscard]] std::size_t TotalDepth() const { return total_depth_; }

 private:
  struct TenantState {
    TenantConfig config;
    std::deque<PendingRequest> queue;  // sorted by (arrival_ns, id)
    double pass = 0.0;
    double stride = 1.0;
  };

  [[nodiscard]] double MinActivePass() const;
  void PopFrom(TenantState& state);

  std::map<TenantId, TenantState> tenants_;
  std::size_t total_depth_ = 0;
};

}  // namespace cim::serve
