#include "arch/program.h"

#include <bit>
#include <cstring>

namespace cim::arch {
namespace {

// Little-endian stores into a buffer already sized for them; each returns
// the position after the value.
std::uint8_t* StoreU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *out++ = (v >> (8 * i)) & 0xFF;
  return out;
}

std::uint32_t ReadU32(std::span<const std::uint8_t> bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[i]} << (8 * i);
  return v;
}

// The f64 bits go on the wire least significant byte first, which on the
// little-endian hosts the simulator builds for (see link_cipher.cc) is
// their order in memory: one eight-byte copy per element.
static_assert(std::endian::native == std::endian::little,
              "StoreF64/ReadF64 copy f64 bits in host byte order");

std::uint8_t* StoreF64(std::uint8_t* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  std::memcpy(out, &bits, 8);
  return out + 8;
}

double ReadF64(std::span<const std::uint8_t> bytes) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, bytes.data(), 8);
  return std::bit_cast<double>(bits);
}

}  // namespace

std::vector<std::uint8_t> SerializeProgram(const Program& p) {
  std::vector<std::uint8_t> out(4 + p.size() * 9);
  std::uint8_t* at =
      StoreU32(out.data(), static_cast<std::uint32_t>(p.size()));
  for (const Instruction& inst : p) {
    *at++ = static_cast<std::uint8_t>(inst.op);
    at = StoreF64(at, inst.operand);
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

void SerializeVector(std::span<const double> values,
                     std::vector<std::uint8_t>* out) {
  out->resize(4 + values.size() * 8);
  std::uint8_t* at =
      StoreU32(out->data(), static_cast<std::uint32_t>(values.size()));
  for (double v : values) at = StoreF64(at, v);
}

Status DeserializeVector(std::span<const std::uint8_t> bytes,
                         std::vector<double>* out) {
  if (bytes.size() < 4) return InvalidArgument("vector payload too short");
  const std::uint32_t count = ReadU32(bytes);
  if (bytes.size() != 4 + static_cast<std::size_t>(count) * 8) {
    return InvalidArgument("vector payload size mismatch");
  }
  out->resize(count);
  std::span<const std::uint8_t> at = bytes.subspan(4);
  for (double& v : *out) {
    v = ReadF64(at);
    at = at.subspan(8);
  }
  return Status::Ok();
}

}  // namespace cim::arch
