#include "arch/micro_unit.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace cim::arch {
namespace {

// The slot a code-packet operand names: its truncation, or nullopt when
// that is no valid slot. Negative, NaN and huge operands are refused before
// the conversion, which would be undefined for them.
std::optional<std::size_t> SlotOf(double operand, std::size_t slots) {
  if (!(operand > -1.0 && operand < static_cast<double>(slots))) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(operand);
}

}  // namespace

Expected<MicroUnit> MicroUnit::Create(const MicroUnitParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  return MicroUnit(params);
}

MicroUnit::MicroUnit(const MicroUnitParams& params)
    : params_(params), slots_(params.local_slots) {}

Status MicroUnit::LoadProgram(Program program) {
  if (failed_) return Unavailable("micro-unit failed");
  program_ = std::move(program);
  cost_.energy_pj += params_.program_load_energy.pj;
  cost_.latency_ns += params_.program_load_latency.ns;
  return Status::Ok();
}

Status MicroUnit::LoadProgramBytes(std::span<const std::uint8_t> bytes) {
  auto program = DeserializeProgram(bytes);
  if (!program.ok()) return program.status();
  return LoadProgram(std::move(program.value()));
}

Status MicroUnit::ConfigureMvm(const crossbar::MvmEngineParams& engine_params,
                               std::size_t in_dim, std::size_t out_dim,
                               std::span<const double> weights, Rng rng) {
  if (failed_) return Unavailable("micro-unit failed");
  auto engine = crossbar::MvmEngine::Create(engine_params, in_dim, out_dim,
                                            rng);
  if (!engine.ok()) return engine.status();
  auto program_cost = engine->ProgramWeights(weights);
  if (!program_cost.ok()) return program_cost.status();
  cost_ += *program_cost;
  mvm_.emplace(std::move(engine.value()));
  return Status::Ok();
}

Status MicroUnit::Execute(std::vector<double>* payload) {
  if (failed_) return Unavailable("micro-unit failed");
  if (payload->size() > params_.max_vector_len) {
    return InvalidArgument("input exceeds max_vector_len");
  }
  std::vector<double>& acc = *payload;

  const auto alu_pass = [this](std::size_t elements) {
    cost_.energy_pj +=
        params_.alu_energy_per_element.pj * static_cast<double>(elements);
    cost_.latency_ns +=
        params_.alu_latency_per_element.ns * static_cast<double>(elements);
    cost_.operations += elements;
  };

  for (const Instruction& inst : program_) {
    switch (inst.op) {
      case OpCode::kNop:
        break;
      case OpCode::kAddScalar:
        for (double& v : acc) v += inst.operand;
        alu_pass(acc.size());
        break;
      case OpCode::kMulScalar:
        for (double& v : acc) v *= inst.operand;
        alu_pass(acc.size());
        break;
      case OpCode::kRelu:
        for (double& v : acc) v = std::max(v, 0.0);
        alu_pass(acc.size());
        break;
      case OpCode::kSigmoid:
        for (double& v : acc) v = 1.0 / (1.0 + std::exp(-v));
        alu_pass(acc.size());
        break;
      case OpCode::kClamp01:
        for (double& v : acc) v = std::clamp(v, 0.0, 1.0);
        alu_pass(acc.size());
        break;
      case OpCode::kMvm: {
        if (!mvm_.has_value()) {
          return FailedPrecondition("kMvm without a configured MVM engine");
        }
        if (acc.size() != mvm_->in_dim()) {
          return InvalidArgument("kMvm input dimension mismatch");
        }
        auto result = mvm_->Compute(acc);
        if (!result.ok()) return result.status();
        acc = std::move(result->y);
        cost_ += result->cost;
        break;
      }
      case OpCode::kStoreLocal: {
        const auto slot = SlotOf(inst.operand, slots_.size());
        if (!slot) return OutOfRange("store slot");
        slots_[*slot] = acc;
        alu_pass(acc.size());
        break;
      }
      case OpCode::kAddLocal: {
        const auto slot = SlotOf(inst.operand, slots_.size());
        if (!slot) return OutOfRange("add slot");
        if (slots_[*slot].size() != acc.size()) {
          return InvalidArgument("kAddLocal dimension mismatch");
        }
        const std::vector<double>& addend = slots_[*slot];
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += addend[i];
        alu_pass(acc.size());
        break;
      }
      case OpCode::kLoadLocal: {
        const auto slot = SlotOf(inst.operand, slots_.size());
        if (!slot) return OutOfRange("load slot");
        acc = slots_[*slot];
        alu_pass(acc.size());
        break;
      }
    }
  }
  return Status::Ok();
}

Expected<std::vector<double>> MicroUnit::ReadSlot(std::size_t slot) const {
  if (slot >= slots_.size()) return OutOfRange("slot index");
  return slots_[slot];
}

Status MicroUnit::WriteSlot(std::size_t slot,
                            std::span<const double> values) {
  if (slot >= slots_.size()) return OutOfRange("slot index");
  if (values.size() > params_.max_vector_len) {
    return InvalidArgument("values exceed max_vector_len");
  }
  slots_[slot].assign(values.begin(), values.end());
  return Status::Ok();
}

}  // namespace cim::arch
