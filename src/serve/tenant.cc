#include "serve/tenant.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace cim::serve {

double WeightForQos(noc::QosClass qos) {
  switch (qos) {
    case noc::QosClass::kControl: return 4.0;
    case noc::QosClass::kRealtime: return 2.0;
    case noc::QosClass::kBulk: return 1.0;
  }
  return 1.0;
}

TenantConfig TenantFromFunction(const runtime::VirtualFunction& fn,
                                const runtime::VirtualFunctionSpec& spec,
                                std::size_t queue_capacity) {
  TenantConfig config;
  config.id = fn.stream_id;
  config.name = fn.name;
  config.weight = WeightForQos(spec.qos);
  config.queue_capacity = queue_capacity;
  config.partition = fn.partition;
  return config;
}

Status TenantScheduler::AddTenant(const TenantConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  if (tenants_.count(config.id) != 0) {
    return InvalidArgument("tenant id already registered");
  }
  TenantState state;
  state.config = config;
  state.stride = 1.0 / config.weight;
  // Joiners start at the current minimum active pass so an established
  // tenant's accumulated pass never hands a newcomer a dispatch monopoly.
  state.pass = MinActivePass();
  tenants_.emplace(config.id, std::move(state));
  return Status::Ok();
}

const TenantConfig* TenantScheduler::Find(TenantId id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second.config;
}

Status TenantScheduler::Enqueue(PendingRequest request, bool force) {
  const auto it = tenants_.find(request.tenant);
  if (it == tenants_.end()) return NotFound("unknown tenant");
  TenantState& state = it->second;
  if (!force && state.queue.size() >= state.config.queue_capacity) {
    return CapacityExceeded("tenant queue full");
  }
  if (state.queue.empty()) {
    // Re-activation: an idle tenant's stale (small) pass would let it
    // monopolize dispatch; rejoin at the active minimum (stride WFQ).
    state.pass = std::max(state.pass, MinActivePass());
  }
  // Insert sorted by (arrival, id): fresh admissions are monotonic already,
  // retry re-entries land at their backoff time.
  auto pos = state.queue.end();
  while (pos != state.queue.begin()) {
    auto prev = std::prev(pos);
    if (prev->arrival_ns < request.arrival_ns ||
        (prev->arrival_ns == request.arrival_ns && prev->id < request.id)) {
      break;
    }
    pos = prev;
  }
  state.queue.insert(pos, std::move(request));
  ++total_depth_;
  return Status::Ok();
}

double TenantScheduler::EarliestArrival() const {
  double earliest = kNoDeadline;
  for (const auto& [id, state] : tenants_) {
    if (!state.queue.empty()) {
      earliest = std::min(earliest, state.queue.front().arrival_ns);
    }
  }
  return earliest;
}

double TenantScheduler::NthArrival(std::size_t n) const {
  if (n >= total_depth_) return kNoDeadline;
  std::vector<double> arrivals;
  arrivals.reserve(total_depth_);
  for (const auto& [id, state] : tenants_) {
    for (const PendingRequest& request : state.queue) {
      arrivals.push_back(request.arrival_ns);
    }
  }
  std::nth_element(arrivals.begin(), arrivals.begin() + static_cast<long>(n),
                   arrivals.end());
  return arrivals[n];
}

double TenantScheduler::MinActivePass() const {
  double min_pass = kNoDeadline;
  for (const auto& [id, state] : tenants_) {
    if (!state.queue.empty()) min_pass = std::min(min_pass, state.pass);
  }
  return min_pass == kNoDeadline ? 0.0 : min_pass;
}

void TenantScheduler::PopFrom(TenantState& state) {
  state.queue.pop_front();
  state.pass += state.stride;
  CIM_CHECK(total_depth_ > 0);
  --total_depth_;
}

bool TenantScheduler::PopVisible(double now, PendingRequest* out) {
  TenantState* best = nullptr;
  for (auto& [id, state] : tenants_) {
    if (state.queue.empty()) continue;
    if (state.queue.front().arrival_ns > now) continue;
    // Lowest pass wins; the map's ascending-id order breaks ties.
    if (best == nullptr || state.pass < best->pass) best = &state;
  }
  if (best == nullptr) return false;
  *out = std::move(best->queue.front());
  PopFrom(*best);
  return true;
}

bool TenantScheduler::PopExpired(double now, PendingRequest* out) {
  for (auto& [id, state] : tenants_) {
    for (auto it = state.queue.begin(); it != state.queue.end(); ++it) {
      if (it->arrival_ns > now) break;  // sorted: the rest arrive later
      if (it->deadline_ns < now) {
        *out = std::move(*it);
        state.queue.erase(it);
        CIM_CHECK(total_depth_ > 0);
        --total_depth_;
        return true;
      }
    }
  }
  return false;
}

}  // namespace cim::serve
