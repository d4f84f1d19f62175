// CIM micro-unit: control + data + processing (Fig 5).
//
// The micro-unit is the smallest composable element of the CIM model. Its
// *control* component runs a small vector program, its *data* component is a
// set of local memory slots (persistent state, §II.B), and its *processing*
// component is an analog MVM engine holding programmed weights. Execution is
// fully accounted in time and energy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/program.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "crossbar/mvm_engine.h"

namespace cim::arch {

struct MicroUnitParams {
  std::string name = "mu";
  std::size_t local_slots = 4;       // data component capacity (vectors)
  std::size_t max_vector_len = 256;  // guard for payload sizes
  // Digital vector-op costs (control + scalar pipeline), per element.
  EnergyPj alu_energy_per_element{0.1};
  TimeNs alu_latency_per_element{0.5};
  // Cost to (re)load a program into the control store.
  EnergyPj program_load_energy{50.0};
  TimeNs program_load_latency{100.0};

  [[nodiscard]] Status Validate() const {
    // The constructor allocates every slot up front.
    if (local_slots == 0 || local_slots > 4096) {
      return InvalidArgument("local_slots must be in [1, 4096]");
    }
    if (max_vector_len == 0) return InvalidArgument("max_vector_len == 0");
    // A NaN latency would reach event times; each cost is one event.
    if (!AllFinite({alu_energy_per_element.pj, alu_latency_per_element.ns,
                    program_load_energy.pj, program_load_latency.ns}) ||
        alu_energy_per_element.pj < 0.0 || alu_latency_per_element.ns < 0.0 ||
        program_load_energy.pj < 0.0 || program_load_latency.ns < 0.0) {
      return InvalidArgument("micro-unit costs must be finite and >= 0");
    }
    if (!AllAtMost({alu_energy_per_element.pj, program_load_energy.pj},
                   kMaxEventEnergyPj) ||
        !AllAtMost({alu_latency_per_element.ns, program_load_latency.ns},
                   kMaxEventLatencyNs)) {
      return InvalidArgument("a micro-unit event must cost <= 1 s and <= 1 J");
    }
    return Status::Ok();
  }
};

class MicroUnit {
 public:
  [[nodiscard]] static Expected<MicroUnit> Create(
      const MicroUnitParams& params);

  [[nodiscard]] const std::string& name() const { return params_.name; }

  // --- control: program management -------------------------------------
  Status LoadProgram(Program program);
  // Load a program that arrived serialized inside a kCode packet.
  Status LoadProgramBytes(std::span<const std::uint8_t> bytes);
  [[nodiscard]] const Program& program() const { return program_; }

  // --- processing: MVM weights ------------------------------------------
  // Attach an MVM engine with the given geometry and program its weights.
  Status ConfigureMvm(const crossbar::MvmEngineParams& engine_params,
                      std::size_t in_dim, std::size_t out_dim,
                      std::span<const double> weights, Rng rng);

  // --- execution ---------------------------------------------------------
  // Run the loaded program over *payload, in place. On error the payload
  // is unspecified, and the cost of the instructions that ran is charged.
  [[nodiscard]] Status Execute(std::vector<double>* payload);

  // --- state & health ----------------------------------------------------
  [[nodiscard]] const CostReport& lifetime_cost() const { return cost_; }
  void ResetCost() { cost_ = CostReport{}; }

  void SetFailed(bool failed) { failed_ = failed; }
  [[nodiscard]] bool failed() const { return failed_; }

  // The data component persists across executions (and, in the CIM vision,
  // across power cycles — NVM); expose it for checkpoint/recovery tests.
  [[nodiscard]] Expected<std::vector<double>> ReadSlot(std::size_t slot) const;
  Status WriteSlot(std::size_t slot, std::span<const double> values);

 private:
  explicit MicroUnit(const MicroUnitParams& params);

  MicroUnitParams params_;
  Program program_;
  std::vector<std::vector<double>> slots_;
  std::optional<crossbar::MvmEngine> mvm_;
  CostReport cost_;
  bool failed_ = false;
};

}  // namespace cim::arch
