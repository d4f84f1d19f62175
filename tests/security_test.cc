// Tests for the security mechanisms (§IV): the NoC-layer packet cipher and
// partition admission, plus the security layer's capability tokens.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "noc/link_cipher.h"
#include "noc/partition.h"
#include "security/capability.h"

namespace cim::security {
namespace {

// The cipher and partition manager live in the NoC layer (they act on
// packets at injection); the policy-level suite pulls them in by name.
using noc::PartitionManager;
using noc::StreamCipher;

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(StreamCipherTest, RoundTripRestoresPlaintext) {
  StreamCipher cipher(0x1234);
  std::vector<std::uint8_t> data = Bytes({1, 2, 3, 4, 5, 6, 7, 8, 9});
  const std::vector<std::uint8_t> original = data;
  cipher.Apply(data, /*nonce=*/42);
  EXPECT_NE(data, original);
  cipher.Apply(data, 42);
  EXPECT_EQ(data, original);
}

TEST(StreamCipherTest, DifferentNonceDifferentKeystream) {
  StreamCipher cipher(0x1234);
  std::vector<std::uint8_t> a = Bytes({0, 0, 0, 0, 0, 0, 0, 0});
  std::vector<std::uint8_t> b = a;
  cipher.Apply(a, 1);
  cipher.Apply(b, 2);
  EXPECT_NE(a, b);
}

TEST(StreamCipherTest, DifferentKeyCannotDecrypt) {
  StreamCipher alice(111), eve(222);
  std::vector<std::uint8_t> data = Bytes({10, 20, 30, 40});
  const std::vector<std::uint8_t> original = data;
  alice.Apply(data, 7);
  eve.Apply(data, 7);
  EXPECT_NE(data, original);
}

TEST(StreamCipherTest, EveryByteChangesForLongPayloads) {
  StreamCipher cipher(0xBEEF);
  std::vector<std::uint8_t> data(256, 0);
  cipher.Apply(data, 9);
  int zeros = 0;
  for (std::uint8_t b : data) {
    if (b == 0) ++zeros;
  }
  // A keystream byte is zero with p=1/256; ~1 expected, allow slack.
  EXPECT_LT(zeros, 8);
}

TEST(StreamCipherTest, CostScalesWithLength) {
  StreamCipher cipher(1);
  std::vector<std::uint8_t> small(16), large(1600);
  const CostReport cost_small = cipher.Apply(small, 1);
  const CostReport cost_large = cipher.Apply(large, 1);
  EXPECT_GT(cost_large.energy_pj, 50.0 * cost_small.energy_pj);
  EXPECT_GT(cost_large.latency_ns, cost_small.latency_ns);
}

TEST(StreamCipherTest, TagDetectsTampering) {
  StreamCipher cipher(0xAA);
  std::vector<std::uint8_t> data = Bytes({1, 2, 3, 4});
  const std::uint32_t tag = cipher.Tag(data, 5);
  EXPECT_TRUE(cipher.Verify(data, 5, tag));
  data[2] ^= 1;
  EXPECT_FALSE(cipher.Verify(data, 5, tag));
}

TEST(StreamCipherTest, TagBoundToNonceAndKey) {
  StreamCipher cipher(0xAA), other(0xBB);
  const std::vector<std::uint8_t> data = Bytes({1, 2, 3, 4});
  const std::uint32_t tag = cipher.Tag(data, 5);
  EXPECT_FALSE(cipher.Verify(data, 6, tag));
  EXPECT_FALSE(other.Verify(data, 5, tag));
}

// The byte-at-a-time keystream XOR that StreamCipher::Apply ran before it
// went word-wise: keystream byte i is byte i % 8 of the generator's word
// i / 8, least significant first. Kept here as the oracle for the faster
// loop.
void ByteWiseApply(std::uint64_t key, std::span<std::uint8_t> data,
                   std::uint64_t nonce) {
  Rng keystream(key ^ (nonce * 0x9e3779b97f4a7c15ULL));
  std::size_t i = 0;
  while (i < data.size()) {
    std::uint64_t word = keystream.NextU64();
    for (int b = 0; b < 8 && i < data.size(); ++b, ++i) {
      data[i] ^= static_cast<std::uint8_t>(word & 0xFF);
      word >>= 8;
    }
  }
}

TEST(StreamCipherTest, WordWiseApplyMatchesByteWiseOracle) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(68);  // one stream-dataflow payload: 4 + 8 x 8 bytes
  lengths.push_back(1000);
  // Tags fold into one checksum, computed before Apply went word-wise: the
  // tag path must not move with it.
  std::uint64_t tags = kFnvOffsetBasis;
  for (const std::uint64_t key : {0ULL, 0x1234ULL, 0x5ca1ab1edeadbeefULL}) {
    const StreamCipher cipher(key);
    for (const std::uint64_t nonce : {0ULL, 7ULL, ~0ULL}) {
      for (const std::size_t n : lengths) {
        // One byte of lead-in puts the span off word alignment.
        Rng rng(n * 31 + nonce);
        std::vector<std::uint8_t> plain(n + 1);
        for (std::uint8_t& b : plain) {
          b = static_cast<std::uint8_t>(rng.NextU64());
        }
        std::vector<std::uint8_t> fast = plain;
        std::vector<std::uint8_t> oracle = plain;
        const CostReport cost =
            cipher.Apply(std::span(fast).subspan(1), nonce);
        ByteWiseApply(key, std::span(oracle).subspan(1), nonce);
        EXPECT_EQ(fast, oracle) << "key " << key << " nonce " << nonce
                                << " length " << n;
        EXPECT_EQ(cost.operations, n);
        FnvMixU64(tags, cipher.Tag(std::span(plain).subspan(1), nonce));
      }
    }
  }
  EXPECT_EQ(tags, 0x1fdafe233d4f498ULL);
}

TEST(CapabilityTest, IssueAndCheckAccess) {
  CapabilityAuthority authority(0xC0FFEE);
  const Capability cap = authority.Issue(
      /*partition=*/1, /*base=*/0x1000, /*length=*/0x100,
      PermissionBits({Permission::kRead, Permission::kWrite}));
  EXPECT_TRUE(
      authority.CheckAccess(cap, 0x1000, 16, Permission::kRead).ok());
  EXPECT_TRUE(
      authority.CheckAccess(cap, 0x10F0, 16, Permission::kWrite).ok());
}

TEST(CapabilityTest, BoundsEnforced) {
  CapabilityAuthority authority(0xC0FFEE);
  const Capability cap =
      authority.Issue(1, 0x1000, 0x100, PermissionBits({Permission::kRead}));
  EXPECT_EQ(authority.CheckAccess(cap, 0xFFF, 1, Permission::kRead).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(authority.CheckAccess(cap, 0x10F0, 17, Permission::kRead).code(),
            ErrorCode::kPermissionDenied);
  // Overflow attempt: huge size wraps naive checks.
  EXPECT_FALSE(
      authority.CheckAccess(cap, 0x1000, ~std::uint64_t{0}, Permission::kRead)
          .ok());
}

TEST(CapabilityTest, MissingPermissionDenied) {
  CapabilityAuthority authority(1);
  const Capability cap =
      authority.Issue(1, 0, 64, PermissionBits({Permission::kRead}));
  EXPECT_FALSE(authority.CheckAccess(cap, 0, 8, Permission::kWrite).ok());
  EXPECT_FALSE(authority.CheckAccess(cap, 0, 8, Permission::kExecute).ok());
}

TEST(CapabilityTest, ForgedSealRejected) {
  CapabilityAuthority authority(1);
  Capability cap =
      authority.Issue(1, 0, 64, PermissionBits({Permission::kRead}));
  cap.length = 1 << 20;  // tamper: widen bounds
  EXPECT_FALSE(authority.CheckAccess(cap, 0, 8, Permission::kRead).ok());
  Capability forged{1, 0, 64, PermissionBits({Permission::kRead}), 12345};
  EXPECT_FALSE(authority.CheckAccess(forged, 0, 8, Permission::kRead).ok());
}

TEST(CapabilityTest, SealKeyedToAuthority) {
  CapabilityAuthority a(1), b(2);
  const Capability cap =
      a.Issue(1, 0, 64, PermissionBits({Permission::kRead}));
  EXPECT_FALSE(b.CheckAccess(cap, 0, 8, Permission::kRead).ok());
}

TEST(CapabilityTest, AttenuationShrinksOnly) {
  CapabilityAuthority authority(7);
  const Capability parent = authority.Issue(
      1, 0x1000, 0x100,
      PermissionBits({Permission::kRead, Permission::kWrite}));
  auto child = authority.Attenuate(parent, 0x1010, 0x20,
                                   PermissionBits({Permission::kRead}));
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(
      authority.CheckAccess(*child, 0x1010, 8, Permission::kRead).ok());
  EXPECT_FALSE(
      authority.CheckAccess(*child, 0x1010, 8, Permission::kWrite).ok());
  // Cannot widen bounds or add permissions.
  EXPECT_FALSE(authority.Attenuate(parent, 0x0F00, 0x400, 0).ok());
  EXPECT_FALSE(authority
                   .Attenuate(parent, 0x1000, 0x10,
                              PermissionBits({Permission::kExecute}))
                   .ok());
}

TEST(PartitionTest, SamePartitionAdmitted) {
  PartitionManager manager;
  manager.Assign({0, 0}, 1);
  manager.Assign({1, 1}, 1);
  noc::Packet packet;
  packet.source = {0, 0};
  packet.destination = {1, 1};
  EXPECT_TRUE(manager.Admit(packet).ok());
}

TEST(PartitionTest, CrossPartitionDeniedByDefault) {
  PartitionManager manager;
  manager.Assign({0, 0}, 1);
  manager.Assign({1, 1}, 2);
  noc::Packet packet;
  packet.source = {0, 0};
  packet.destination = {1, 1};
  EXPECT_EQ(manager.Admit(packet).code(), ErrorCode::kPermissionDenied);
}

TEST(PartitionTest, GrantedFlowAdmitted) {
  PartitionManager manager;
  manager.Assign({0, 0}, 1);
  manager.Assign({1, 1}, 2);
  manager.GrantFlow(1, 2);
  noc::Packet forward;
  forward.source = {0, 0};
  forward.destination = {1, 1};
  EXPECT_TRUE(manager.Admit(forward).ok());
  // Grants are directional.
  noc::Packet reverse;
  reverse.source = {1, 1};
  reverse.destination = {0, 0};
  EXPECT_FALSE(manager.Admit(reverse).ok());
  manager.RevokeFlow(1, 2);
  EXPECT_FALSE(manager.Admit(forward).ok());
}

TEST(PartitionTest, UnassignedNodesFailClosed) {
  PartitionManager manager;
  manager.Assign({0, 0}, 1);
  noc::Packet packet;
  packet.source = {0, 0};
  packet.destination = {3, 3};  // never assigned
  EXPECT_FALSE(manager.Admit(packet).ok());
}

TEST(PartitionTest, ReassignmentMovesNode) {
  PartitionManager manager;
  manager.Assign({0, 0}, 1);
  EXPECT_EQ(manager.PartitionOf({0, 0}), 1u);
  manager.Assign({0, 0}, 2);
  EXPECT_EQ(manager.PartitionOf({0, 0}), 2u);
  EXPECT_EQ(manager.assigned_nodes(), 1u);
}

}  // namespace
}  // namespace cim::security
