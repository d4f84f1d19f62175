// Serviceability (§V.D): "Understanding how individual devices age can
// enable switching them out of active configurations preventing failures
// from even happening."
//
// The monitor tracks per-unit wear (write cycles against endurance budget,
// verify-failure rate, drift exposure) and drives a closed loop: units past
// a health threshold are proactively retired to spares *before* they fail,
// with escalation levels matching the paper's chain (device -> management
// -> support -> design).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"

namespace cim::reliability {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded,   // wear past warning threshold: schedule replacement
  kRetired,    // proactively switched out of the active configuration
  kFailed,     // fault happened before (or despite) retirement
};

// Escalation targets per §V.D's closed loops.
enum class EscalationLevel : std::uint8_t {
  kNone = 0,
  kCentralManagement,  // device -> central management
  kSupportAgents,      // management -> support agents
  kDesignEngineers,    // support -> design engineers (systemic issue)
};

struct AgingParams {
  std::uint64_t endurance_cycles = 1'000'000;
  double degraded_wear_fraction = 0.8;   // warn at 80% of endurance
  double retire_wear_fraction = 0.95;    // retire at 95%
  double verify_failure_warn_rate = 0.05;
  // Fleet-level: this fraction of units degraded at once escalates to
  // design engineers (systemic aging).
  double systemic_fraction = 0.25;

  [[nodiscard]] Status Validate() const {
    if (endurance_cycles == 0) return InvalidArgument("endurance == 0");
    if (degraded_wear_fraction <= 0.0 ||
        retire_wear_fraction <= degraded_wear_fraction ||
        retire_wear_fraction > 1.0) {
      return InvalidArgument("wear thresholds must satisfy 0 < warn < "
                             "retire <= 1");
    }
    return Status::Ok();
  }
};

struct UnitHealth {
  std::uint64_t write_cycles = 0;
  std::uint64_t verify_attempts = 0;
  std::uint64_t verify_failures = 0;
  HealthState state = HealthState::kHealthy;

  [[nodiscard]] double wear(const AgingParams& p) const {
    return static_cast<double>(write_cycles) /
           static_cast<double>(p.endurance_cycles);
  }
  [[nodiscard]] double verify_failure_rate() const {
    return verify_attempts == 0
               ? 0.0
               : static_cast<double>(verify_failures) /
                     static_cast<double>(verify_attempts);
  }
};

struct MonitorReport {
  std::vector<std::uint32_t> newly_degraded;
  std::vector<std::uint32_t> newly_retired;
  EscalationLevel escalation = EscalationLevel::kNone;
};

class AgingMonitor {
 public:
  [[nodiscard]] static Expected<AgingMonitor> Create(
      const AgingParams& params);

  // Register an active unit and its spares pool membership.
  Status AddUnit(std::uint32_t unit, bool is_spare = false);

  // Telemetry feed from the fabric: writes performed, verify outcomes.
  Status RecordWrites(std::uint32_t unit, std::uint64_t cycles,
                      std::uint64_t verify_attempts,
                      std::uint64_t verify_failures);
  // An actual fault (the monitor failed to pre-empt it).
  Status RecordFailure(std::uint32_t unit);

  // Run the closed loop: update states, retire worn units onto spares,
  // compute the escalation level.
  [[nodiscard]] MonitorReport Evaluate();

  // Replacement for a retired/failed unit, if a spare is available.
  [[nodiscard]] Expected<std::uint32_t> ClaimSpare();

  [[nodiscard]] Expected<UnitHealth> HealthOf(std::uint32_t unit) const;
  [[nodiscard]] std::size_t active_units() const;
  [[nodiscard]] std::size_t available_spares() const {
    return spares_.size();
  }
  // Failures that happened while a unit was still marked healthy — the
  // metric proactive retirement is supposed to drive to zero.
  [[nodiscard]] std::uint64_t unanticipated_failures() const {
    return unanticipated_failures_;
  }

 private:
  explicit AgingMonitor(const AgingParams& params) : params_(params) {}

  AgingParams params_;
  std::map<std::uint32_t, UnitHealth> units_;
  std::vector<std::uint32_t> spares_;
  std::uint64_t unanticipated_failures_ = 0;
};

}  // namespace cim::reliability
