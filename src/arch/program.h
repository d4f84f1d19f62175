// Micro-unit programs (§III.B).
//
// A CIM micro-unit executes a small vector program against incoming data.
// Programs are serializable to bytes so they can ship inside kCode packets —
// that is the paper's "self-programmable dataflow": code arrives as part of
// the packet stream and reconfigures the function of a micro-unit on
// arrival.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace cim::arch {

enum class OpCode : std::uint8_t {
  kNop = 0,
  kAddScalar,   // acc[i] += operand
  kMulScalar,   // acc[i] *= operand
  kRelu,        // acc[i] = max(acc[i], 0)
  kSigmoid,     // acc[i] = 1/(1+exp(-acc[i]))
  kMvm,         // acc = W^T acc using the unit's programmed weights
  kStoreLocal,  // local memory slot[operand] = acc
  kAddLocal,    // acc[i] += slot[operand][i]
  kLoadLocal,   // acc = slot[operand]
  kClamp01,     // acc[i] = clamp(acc[i], 0, 1) (pre-DAC conditioning)
};
inline constexpr std::uint8_t kMaxOpCode = static_cast<std::uint8_t>(
    OpCode::kClamp01);

struct Instruction {
  OpCode op = OpCode::kNop;
  double operand = 0.0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

using Program = std::vector<Instruction>;

// Wire format: [u32 count] then per instruction [u8 opcode][f64 operand],
// little-endian. Compact enough to ride in a packet's inline payload.
[[nodiscard]] std::vector<std::uint8_t> SerializeProgram(const Program& p);
[[nodiscard]] Expected<Program> DeserializeProgram(
    std::span<const std::uint8_t> bytes);

// Vector payload <-> bytes for data packets: [u32 count] then the f64 bits,
// little-endian. Both write into a buffer the caller owns and resize it to
// fit, so a recycled buffer keeps its capacity and a steady stream of
// same-sized payloads allocates nothing. A failed decode leaves *out
// unspecified.
void SerializeVector(std::span<const double> values,
                     std::vector<std::uint8_t>* out);
[[nodiscard]] Status DeserializeVector(std::span<const std::uint8_t> bytes,
                                       std::vector<double>* out);

}  // namespace cim::arch
