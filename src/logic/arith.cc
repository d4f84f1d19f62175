#include "logic/arith.h"

#include <array>

namespace cim::logic {
namespace {

// Scratch register layout shared by both adder families.
constexpr std::size_t kRegA = 0;
constexpr std::size_t kRegB = 1;
constexpr std::size_t kRegCin = 2;
constexpr std::size_t kRegT1 = 3;  // t1..t7 gate outputs
constexpr std::size_t kRegT4 = 6;
constexpr std::size_t kRegT5 = 7;
constexpr std::size_t kRegSum = 10;
constexpr std::size_t kRegCout = 11;
constexpr std::size_t kMinRegisters = 16;

// The 9-gate full adder, as {x, y, dst} for dst = G(x, y):
//   t1 = G(a,b); t2 = G(a,t1); t3 = G(b,t1); t4 = G(t2,t3)
//   t5 = G(t4,c); t6 = G(t4,t5); t7 = G(c,t5)
//   sum = G(t6,t7); cout = G(t1,t5)
// It adds with G = NAND and, being self-dual, with G = NOR: there t4 is
// XNOR(a,b) and sum = XNOR(t4,c).
constexpr std::array<std::array<std::size_t, 3>, 9> kFullAdder = {{
    {kRegA, kRegB, kRegT1},
    {kRegA, kRegT1, kRegT1 + 1},
    {kRegB, kRegT1, kRegT1 + 2},
    {kRegT1 + 1, kRegT1 + 2, kRegT4},
    {kRegT4, kRegCin, kRegT5},
    {kRegT4, kRegT5, kRegT5 + 1},
    {kRegCin, kRegT5, kRegT5 + 2},
    {kRegT5 + 1, kRegT5 + 2, kRegSum},
    {kRegT1, kRegT5, kRegCout},
}};

// Ripple-carry add on either stateful-logic engine; `gate(x, y, dst)`
// applies the family's universal gate.
template <typename Engine, typename Gate>
Expected<AdderResult> RippleAdd(Engine& engine, const Gate& gate,
                                std::uint64_t a, std::uint64_t b, int bits) {
  if (bits < 1 || bits > 64) return InvalidArgument("bits must be in [1,64]");
  if (engine.register_count() < kMinRegisters) {
    return InvalidArgument("ripple adder needs >= 16 registers");
  }
  engine.ResetCost();

  AdderResult result;
  bool carry = false;
  for (int i = 0; i < bits; ++i) {
    const bool abit = (a >> i) & 1;
    const bool bbit = (b >> i) & 1;
    if (Status s = engine.WriteBit(kRegA, abit); !s.ok()) return s;
    if (Status s = engine.WriteBit(kRegB, bbit); !s.ok()) return s;
    if (Status s = engine.WriteBit(kRegCin, carry); !s.ok()) return s;
    for (const auto& [x, y, dst] : kFullAdder) {
      if (Status s = gate(x, y, dst); !s.ok()) return s;
    }
    auto sum_bit = engine.ReadBit(kRegSum);
    auto carry_bit = engine.ReadBit(kRegCout);
    if (!sum_bit.ok()) return sum_bit.status();
    if (!carry_bit.ok()) return carry_bit.status();
    if (*sum_bit) result.sum |= std::uint64_t{1} << i;
    carry = *carry_bit;
  }
  result.carry_out = carry;
  result.cost = engine.cost();
  return result;
}

}  // namespace

Expected<AdderResult> ImplyRippleAdd(ImplyEngine& engine, std::uint64_t a,
                                     std::uint64_t b, int bits) {
  // Each NAND is 3 IMPLY cycles: 27 cycles per full adder.
  const auto nand = [&engine](std::size_t x, std::size_t y, std::size_t dst) {
    return engine.Nand(x, y, dst);
  };
  return RippleAdd(engine, nand, a, b, bits);
}

Expected<AdderResult> MagicRippleAdd(MagicNorEngine& engine, std::uint64_t a,
                                     std::uint64_t b, int bits) {
  // Each MAGIC NOR needs its output latch pre-set: Init + Nor = 2 cycles.
  const auto nor = [&engine](std::size_t x, std::size_t y,
                             std::size_t dst) -> Status {
    if (Status s = engine.Init(dst); !s.ok()) return s;
    return engine.Nor(x, y, dst);
  };
  return RippleAdd(engine, nor, a, b, bits);
}

Expected<bool> BulkRowsEqual(BulkBitwiseEngine& engine, std::size_t row_a,
                             std::size_t row_b, std::size_t scratch) {
  if (Status s = engine.Xor(row_a, row_b, scratch); !s.ok()) return s;
  auto row = engine.ReadRow(scratch);
  if (!row.ok()) return row.status();
  for (std::uint64_t word : *row) {
    if (word != 0) return false;
  }
  return true;
}

}  // namespace cim::logic
