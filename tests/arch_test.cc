// Tests for micro-unit programs, serialization, and execution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "arch/micro_unit.h"
#include "arch/program.h"
#include "byte_mutator.h"
#include "common/rng.h"

namespace cim::arch {
namespace {

MicroUnitParams DefaultParams() { return MicroUnitParams{}; }

// Execute runs a payload in place; the tests read the result by value.
Expected<std::vector<double>> ExecuteCopy(MicroUnit& mu,
                                          std::vector<double> payload) {
  if (Status s = mu.Execute(&payload); !s.ok()) return s;
  return payload;
}

std::vector<std::uint8_t> Encode(std::span<const double> values) {
  std::vector<std::uint8_t> bytes;
  SerializeVector(values, &bytes);
  return bytes;
}

crossbar::MvmEngineParams QuietEngine() {
  crossbar::MvmEngineParams p;
  p.array.rows = 16;
  p.array.cols = 16;
  p.array.cell.read_noise_sigma = 0.0;
  p.array.cell.write_noise_sigma = 0.0;
  p.array.cell.endurance_cycles = 0;
  p.array.cell.drift_nu = 0.0;
  p.array.ir_drop_alpha = 0.0;
  p.array.adc.bits = 12;
  return p;
}

TEST(ProgramSerdesTest, RoundTrip) {
  const Program program{{OpCode::kMulScalar, 2.5},
                        {OpCode::kAddScalar, -1.0},
                        {OpCode::kRelu, 0.0},
                        {OpCode::kStoreLocal, 2.0}};
  const auto bytes = SerializeProgram(program);
  auto decoded = DeserializeProgram(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, program);
}

TEST(ProgramSerdesTest, RejectsTruncatedAndCorrupt) {
  const auto bytes = SerializeProgram({{OpCode::kRelu, 0.0}});
  auto truncated = DeserializeProgram(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
  EXPECT_FALSE(truncated.ok());
  auto corrupt = bytes;
  corrupt[4] = 0xFF;  // invalid opcode
  EXPECT_EQ(DeserializeProgram(corrupt).status().code(),
            ErrorCode::kDataCorruption);
  EXPECT_FALSE(DeserializeProgram(std::vector<std::uint8_t>{}).ok());
}

TEST(VectorSerdesTest, RoundTrip) {
  const std::vector<double> values{1.5, -2.25, 0.0, 1e-9, 1e12};
  const std::vector<std::uint8_t> bytes = Encode(values);
  // A u32 count, then each value's f64 bits, little-endian.
  ASSERT_EQ(bytes.size(), 4u + 8u * values.size());
  EXPECT_EQ(bytes[0], 5u);
  EXPECT_EQ(bytes[1] | bytes[2] | bytes[3], 0u);
  EXPECT_EQ(bytes[4 + 7], 0x3F);  // 1.5 = 0x3FF8000000000000
  EXPECT_EQ(bytes[4 + 6], 0xF8);
  std::vector<double> decoded;
  ASSERT_TRUE(DeserializeVector(bytes, &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(VectorSerdesTest, EmptyVector) {
  std::vector<double> decoded;
  ASSERT_TRUE(DeserializeVector(Encode(std::vector<double>{}), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

// The fabric serializes every hop into a recycled buffer and decodes into a
// recycled payload vector: whatever either held before must not leak into
// the result.
TEST(VectorSerdesTest, ReusedBuffersHoldExactlyTheNewPayload) {
  const std::vector<double> longer{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> shorter{-0.5, 7.25};
  std::vector<std::uint8_t> bytes;
  SerializeVector(longer, &bytes);
  SerializeVector(shorter, &bytes);  // a longer buffer shrinks
  EXPECT_EQ(bytes, Encode(shorter));
  SerializeVector(std::vector<double>{}, &bytes);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0, 0, 0, 0}));

  std::vector<double> decoded = longer;  // decode into a non-empty vector
  ASSERT_TRUE(DeserializeVector(Encode(shorter), &decoded).ok());
  EXPECT_EQ(decoded, shorter);
  ASSERT_TRUE(DeserializeVector(Encode(longer), &decoded).ok());
  EXPECT_EQ(decoded, longer);
  // An empty payload round-trips through a buffer that held one.
  ASSERT_TRUE(DeserializeVector(bytes, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(VectorSerdesTest, RejectsShortAndMismatchedBuffers) {
  std::vector<double> decoded;
  EXPECT_EQ(DeserializeVector(std::vector<std::uint8_t>{5, 0, 0}, &decoded)
                .code(),
            ErrorCode::kInvalidArgument);
  std::vector<std::uint8_t> bytes = Encode(std::vector<double>{1.0, 2.0});
  bytes.pop_back();
  EXPECT_EQ(DeserializeVector(bytes, &decoded).code(),
            ErrorCode::kInvalidArgument);
}

TEST(MicroUnitTest, ScalarPipeline) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kMulScalar, 3.0},
                               {OpCode::kAddScalar, 1.0},
                               {OpCode::kRelu, 0.0}})
                  .ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{1.0, -2.0});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 4.0);   // 1*3+1
  EXPECT_DOUBLE_EQ((*out)[1], 0.0);   // relu(-5)
}

TEST(MicroUnitTest, SigmoidAndClamp) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kSigmoid, 0.0}}).ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{0.0});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 0.5);
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kClamp01, 0.0}}).ok());
  auto clamped = ExecuteCopy(*mu, std::vector<double>{-3.0, 0.4, 7.0});
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ((*clamped)[0], 0.0);
  EXPECT_DOUBLE_EQ((*clamped)[1], 0.4);
  EXPECT_DOUBLE_EQ((*clamped)[2], 1.0);
}

TEST(MicroUnitTest, LocalSlotsPersistAcrossExecutions) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kStoreLocal, 1.0}}).ok());
  ASSERT_TRUE(ExecuteCopy(*mu, std::vector<double>{9.0, 8.0}).ok());
  // New program reads back the stored state (persistence, §II.B).
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kLoadLocal, 1.0}}).ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{0.0, 0.0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<double>{9.0, 8.0}));
}

TEST(MicroUnitTest, AddLocalAccumulates) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->WriteSlot(0, std::vector<double>{1.0, 2.0}).ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kAddLocal, 0.0}}).ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{10.0, 20.0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<double>{11.0, 22.0}));
}

TEST(MicroUnitTest, MvmOpUsesConfiguredEngine) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  // 2x2 identity-ish matrix (0.5 diagonal).
  const std::vector<double> weights{0.5, 0.0, 0.0, 0.5};
  ASSERT_TRUE(mu->ConfigureMvm(QuietEngine(), 2, 2, weights, Rng(3)).ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kMvm, 0.0}}).ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{1.0, 0.5});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR((*out)[0], 0.5, 0.1);
  EXPECT_NEAR((*out)[1], 0.25, 0.1);
}

TEST(MicroUnitTest, MvmWithoutEngineFails) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kMvm, 0.0}}).ok());
  EXPECT_EQ(ExecuteCopy(*mu, std::vector<double>{1.0}).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(MicroUnitTest, ProgramFromBytes) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  const Program program{{OpCode::kAddScalar, 5.0}};
  ASSERT_TRUE(mu->LoadProgramBytes(SerializeProgram(program)).ok());
  auto out = ExecuteCopy(*mu, std::vector<double>{1.0});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 6.0);
  // Garbage bytes rejected.
  EXPECT_FALSE(mu->LoadProgramBytes(std::vector<std::uint8_t>{1, 2}).ok());
}

TEST(MicroUnitTest, FailedUnitRefusesWork) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kNop, 0.0}}).ok());
  mu->SetFailed(true);
  EXPECT_EQ(ExecuteCopy(*mu, std::vector<double>{1.0}).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(mu->LoadProgram({}).code(), ErrorCode::kUnavailable);
  mu->SetFailed(false);
  EXPECT_TRUE(ExecuteCopy(*mu, std::vector<double>{1.0}).ok());
}

// Validate only for over-bound counts: local_slots = SIZE_MAX would make
// the constructor's slot vector throw.
TEST(MicroUnitParamsTest, CountsAndCostsBounded) {
  MicroUnitParams p;
  p.local_slots = 4096;
  EXPECT_TRUE(p.Validate().ok());
  for (const std::size_t slots :
       {std::size_t{0}, std::size_t{4097},
        std::numeric_limits<std::size_t>::max()}) {
    p.local_slots = slots;
    EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << slots;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<std::pair<double (*)(MicroUnitParams&, double), double>>
      costs = {
          {[](MicroUnitParams& m, double v) {
             return m.alu_energy_per_element.pj = v;
           },
           kMaxEventEnergyPj},
          {[](MicroUnitParams& m, double v) {
             return m.alu_latency_per_element.ns = v;
           },
           kMaxEventLatencyNs},
          {[](MicroUnitParams& m, double v) {
             return m.program_load_energy.pj = v;
           },
           kMaxEventEnergyPj},
          {[](MicroUnitParams& m, double v) {
             return m.program_load_latency.ns = v;
           },
           kMaxEventLatencyNs},
      };
  for (const auto& [set, ceiling] : costs) {
    for (const double ok : {0.0, ceiling}) {
      MicroUnitParams q;
      set(q, ok);
      EXPECT_TRUE(q.Validate().ok()) << ok;
      auto mu = MicroUnit::Create(q);
      ASSERT_TRUE(mu.ok());
      ASSERT_TRUE(mu->LoadProgram({{OpCode::kAddScalar, 1.0}}).ok());
      ASSERT_TRUE(ExecuteCopy(*mu, std::vector<double>(4, 1.0)).ok());
      EXPECT_TRUE(std::isfinite(mu->lifetime_cost().latency_ns) &&
                  std::isfinite(mu->lifetime_cost().energy_pj));
    }
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
          std::nextafter(ceiling, kMax), kMax}) {
      MicroUnitParams q;
      set(q, bad);
      EXPECT_EQ(q.Validate().code(), ErrorCode::kInvalidArgument) << bad;
      EXPECT_FALSE(MicroUnit::Create(q).ok()) << bad;
    }
  }
}

TEST(MicroUnitTest, CostAccumulates) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kAddScalar, 1.0},
                               {OpCode::kMulScalar, 2.0}})
                  .ok());
  const CostReport before = mu->lifetime_cost();
  ASSERT_TRUE(ExecuteCopy(*mu, std::vector<double>(8, 1.0)).ok());
  const CostReport after = mu->lifetime_cost();
  EXPECT_GT(after.energy_pj, before.energy_pj);
  EXPECT_EQ(after.operations - before.operations, 16u);  // 2 ops x 8 elems
}

TEST(MicroUnitTest, InputSizeGuard) {
  MicroUnitParams params;
  params.max_vector_len = 4;
  auto mu = MicroUnit::Create(params);
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->LoadProgram({}).ok());
  EXPECT_FALSE(ExecuteCopy(*mu, std::vector<double>(5, 0.0)).ok());
}

TEST(MicroUnitTest, SlotBoundsChecked) {
  auto mu = MicroUnit::Create(DefaultParams());
  ASSERT_TRUE(mu.ok());
  EXPECT_FALSE(mu->ReadSlot(99).ok());
  EXPECT_FALSE(mu->WriteSlot(99, std::vector<double>{1.0}).ok());
  ASSERT_TRUE(mu->LoadProgram({{OpCode::kLoadLocal, 99.0}}).ok());
  EXPECT_FALSE(ExecuteCopy(*mu, std::vector<double>{1.0}).ok());
  // Operands arrive as raw doubles in kCode payloads: negative, NaN and
  // huge ones must be refused before any integer conversion.
  for (const OpCode op :
       {OpCode::kStoreLocal, OpCode::kAddLocal, OpCode::kLoadLocal}) {
    for (const double operand :
         {-1.0, std::numeric_limits<double>::quiet_NaN(), 1e300}) {
      ASSERT_TRUE(mu->LoadProgram({{op, operand}}).ok());
      auto result = ExecuteCopy(*mu, std::vector<double>{1.0});
      ASSERT_FALSE(result.ok()) << static_cast<int>(op) << " " << operand;
      EXPECT_EQ(result.status().code(), ErrorCode::kOutOfRange);
    }
  }
}

// Seeded mutation fuzzing of the byte parsers kCode/kData packets reach:
// whatever a mutant decodes to must re-serialise to exactly its bytes, so
// no accepted payload is silently reinterpreted.
constexpr std::uint64_t kFuzzSeeds[] = {1, 2};
constexpr int kMutantsPerSeed = 2000;

TEST(ProgramSerdesTest, MutatedEncodingsDecodeExactlyOrAreRejected) {
  const auto valid = SerializeProgram({{OpCode::kMulScalar, 2.5},
                                       {OpCode::kStoreLocal, 1.0},
                                       {OpCode::kAddLocal, 1.0},
                                       {OpCode::kLoadLocal, 3.0},
                                       {OpCode::kClamp01, 0.0}});
  for (const std::uint64_t seed : kFuzzSeeds) {
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const auto mutant = fuzz::Mutate(valid, 0, rng);
      auto decoded = DeserializeProgram(mutant);
      if (!decoded.ok()) continue;
      ++accepted;
      EXPECT_EQ(SerializeProgram(*decoded), mutant)
          << "seed " << seed << " mutant " << i;
    }
    EXPECT_GT(accepted, 0) << "seed " << seed;
  }
}

TEST(VectorSerdesTest, MutatedEncodingsDecodeExactlyOrAreRejected) {
  const auto valid = Encode(std::vector<double>{1.5, -2.25, 0.0, 1e-9, 1e12});
  // One decode target and one encode buffer for every mutant, as the
  // fabric reuses its hop buffers.
  std::vector<double> decoded;
  std::vector<std::uint8_t> reencoded;
  for (const std::uint64_t seed : kFuzzSeeds) {
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const auto mutant = fuzz::Mutate(valid, 0, rng);
      if (!DeserializeVector(mutant, &decoded).ok()) continue;
      ++accepted;
      SerializeVector(decoded, &reencoded);
      EXPECT_EQ(reencoded, mutant)
          << "seed " << seed << " mutant " << i;
    }
    EXPECT_GT(accepted, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cim::arch
