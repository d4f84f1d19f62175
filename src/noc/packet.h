// Packet abstraction for the CIM interconnect (§III: interconnects are an
// integral part of the CIM model; §IV: security is packet- and
// stream-based).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace cim::noc {

// Node coordinate in the 2-D mesh.
struct NodeId {
  std::uint16_t x = 0;
  std::uint16_t y = 0;

  friend constexpr bool operator==(NodeId a, NodeId b) {
    return a.x == b.x && a.y == b.y;
  }
};

// QoS class maps to a virtual channel; lower value = higher priority
// (§IV.B: quality of service via provisioned interconnect).
enum class QosClass : std::uint8_t {
  kControl = 0,   // reconfiguration, fault notifications
  kRealtime = 1,  // SLA-bound streams
  kBulk = 2,      // best-effort data
};
inline constexpr int kQosClassCount = 3;

// What the packet carries. kCode enables the self-programmable dataflow
// model (§III.B): packets that reprogram micro-units on arrival.
enum class PayloadKind : std::uint8_t {
  kData = 0,
  kCode = 2,
};

struct Packet {
  std::uint64_t id = 0;
  std::uint64_t stream_id = 0;
  NodeId source;
  NodeId destination;
  std::uint32_t payload_bytes = 64;
  QosClass qos = QosClass::kBulk;
  PayloadKind kind = PayloadKind::kData;
  bool encrypted = false;
  // Authentication tag carried when the security layer signed the packet
  // (data verified against the processing element, §IV.A).
  std::uint32_t auth_tag = 0;
  // Opaque payload for code-carrying / config packets; data packets leave
  // this empty and only account for payload_bytes.
  std::vector<std::uint8_t> inline_payload;

  TimeNs injected_at{0.0};
};

}  // namespace cim::noc
