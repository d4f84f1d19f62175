#include "arch/program.h"

#include <bit>
#include <cstring>

namespace cim::arch {
namespace {

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

std::uint32_t ReadU32(std::span<const std::uint8_t> bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[i]} << (8 * i);
  return v;
}

void AppendF64(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) out.push_back((bits >> (8 * i)) & 0xFF);
}

double ReadF64(std::span<const std::uint8_t> bytes) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= std::uint64_t{bytes[i]} << (8 * i);
  return std::bit_cast<double>(bits);
}

}  // namespace

std::vector<std::uint8_t> SerializeProgram(const Program& p) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + p.size() * 9);
  AppendU32(out, static_cast<std::uint32_t>(p.size()));
  for (const Instruction& inst : p) {
    out.push_back(static_cast<std::uint8_t>(inst.op));
    AppendF64(out, inst.operand);
  }
  return out;
}

Expected<Program> DeserializeProgram(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return InvalidArgument("program payload too short");
  const std::uint32_t count = ReadU32(bytes);
  if (bytes.size() != 4 + static_cast<std::size_t>(count) * 9) {
    return InvalidArgument("program payload size mismatch");
  }
  Program p;
  p.reserve(count);
  std::size_t offset = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t op = bytes[offset];
    if (op > kMaxOpCode) return DataCorruption("unknown opcode");
    Instruction inst;
    inst.op = static_cast<OpCode>(op);
    inst.operand = ReadF64(bytes.subspan(offset + 1, 8));
    p.push_back(inst);
    offset += 9;
  }
  return p;
}

std::vector<std::uint8_t> SerializeVector(std::span<const double> values) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + values.size() * 8);
  AppendU32(out, static_cast<std::uint32_t>(values.size()));
  for (double v : values) AppendF64(out, v);
  return out;
}

Expected<std::vector<double>> DeserializeVector(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return InvalidArgument("vector payload too short");
  const std::uint32_t count = ReadU32(bytes);
  if (bytes.size() != 4 + static_cast<std::size_t>(count) * 8) {
    return InvalidArgument("vector payload size mismatch");
  }
  std::vector<double> values(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    values[i] = ReadF64(bytes.subspan(4 + static_cast<std::size_t>(i) * 8, 8));
  }
  return values;
}

}  // namespace cim::arch
