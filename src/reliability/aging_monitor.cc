#include "reliability/aging_monitor.h"

#include <algorithm>

namespace cim::reliability {

Expected<AgingMonitor> AgingMonitor::Create(const AgingParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  return AgingMonitor(params);
}

Status AgingMonitor::AddUnit(std::uint32_t unit, bool is_spare) {
  if (units_.contains(unit)) return AlreadyExists("unit id");
  if (is_spare) {
    spares_.push_back(unit);
    return Status::Ok();
  }
  units_[unit] = UnitHealth{};
  return Status::Ok();
}

Status AgingMonitor::RecordWrites(std::uint32_t unit, std::uint64_t cycles,
                                  std::uint64_t verify_attempts,
                                  std::uint64_t verify_failures) {
  auto it = units_.find(unit);
  if (it == units_.end()) return NotFound("unit");
  it->second.write_cycles += cycles;
  it->second.verify_attempts += verify_attempts;
  it->second.verify_failures += verify_failures;
  return Status::Ok();
}

Status AgingMonitor::RecordFailure(std::uint32_t unit) {
  auto it = units_.find(unit);
  if (it == units_.end()) return NotFound("unit");
  if (it->second.state == HealthState::kHealthy) ++unanticipated_failures_;
  it->second.state = HealthState::kFailed;
  return Status::Ok();
}

MonitorReport AgingMonitor::Evaluate() {
  MonitorReport report;
  std::size_t degraded_or_worse = 0;
  for (auto& [id, health] : units_) {
    if (health.state == HealthState::kFailed ||
        health.state == HealthState::kRetired) {
      ++degraded_or_worse;
      continue;
    }
    const double wear = health.wear(params_);
    const bool verify_warn =
        health.verify_attempts >= 100 &&
        health.verify_failure_rate() > params_.verify_failure_warn_rate;
    if (wear >= params_.retire_wear_fraction) {
      health.state = HealthState::kRetired;
      report.newly_retired.push_back(id);
      ++degraded_or_worse;
    } else if (health.state == HealthState::kHealthy &&
               (wear >= params_.degraded_wear_fraction || verify_warn)) {
      health.state = HealthState::kDegraded;
      report.newly_degraded.push_back(id);
      ++degraded_or_worse;
    } else if (health.state == HealthState::kDegraded) {
      ++degraded_or_worse;
    }
  }

  // Escalation (§V.D): local events go to central management; retirements
  // need support agents to swap hardware; a systemic fraction of the fleet
  // degrading points at design.
  if (!units_.empty()) {
    const double fraction = static_cast<double>(degraded_or_worse) /
                            static_cast<double>(units_.size());
    if (fraction >= params_.systemic_fraction) {
      report.escalation = EscalationLevel::kDesignEngineers;
    } else if (!report.newly_retired.empty()) {
      report.escalation = EscalationLevel::kSupportAgents;
    } else if (!report.newly_degraded.empty()) {
      report.escalation = EscalationLevel::kCentralManagement;
    }
  }
  return report;
}

Expected<std::uint32_t> AgingMonitor::ClaimSpare() {
  if (spares_.empty()) return Unavailable("no spares left");
  const std::uint32_t spare = spares_.back();
  spares_.pop_back();
  units_[spare] = UnitHealth{};
  return spare;
}

Expected<UnitHealth> AgingMonitor::HealthOf(std::uint32_t unit) const {
  const auto it = units_.find(unit);
  if (it == units_.end()) return NotFound("unit");
  return it->second;
}

std::size_t AgingMonitor::active_units() const {
  std::size_t n = 0;
  for (const auto& [id, health] : units_) {
    if (health.state == HealthState::kHealthy ||
        health.state == HealthState::kDegraded) {
      ++n;
    }
  }
  return n;
}

}  // namespace cim::reliability
