// Tests for the event-driven mesh interconnect.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "noc/mesh.h"

namespace cim::noc {
namespace {

MeshParams SmallMesh(std::uint16_t w = 4, std::uint16_t h = 4) {
  MeshParams p;
  p.width = w;
  p.height = h;
  return p;
}

Packet MakePacket(std::uint64_t id, NodeId src, NodeId dst,
                  std::uint32_t bytes = 64,
                  QosClass qos = QosClass::kBulk) {
  Packet p;
  p.id = id;
  p.stream_id = id;
  p.source = src;
  p.destination = dst;
  p.payload_bytes = bytes;
  p.qos = qos;
  return p;
}

TEST(MeshParamsTest, Validation) {
  EXPECT_TRUE(SmallMesh().Validate().ok());
  MeshParams p = SmallMesh(0, 4);
  EXPECT_FALSE(p.Validate().ok());
  p = SmallMesh();
  p.link_bandwidth_gbps = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(MeshNocTest, CreateRequiresQueue) {
  EXPECT_FALSE(MeshNoc::Create(SmallMesh(), nullptr).ok());
}

TEST(MeshNocTest, DeliversPacketToDestination) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  std::vector<Delivery> deliveries;
  noc->SetDeliveryHandler({3, 3}, [&](const Delivery& d) {
    deliveries.push_back(d);
  });
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {3, 3})).ok());
  queue.Run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].packet.id, 1u);
  EXPECT_EQ(deliveries[0].hops, 6);  // 3 east + 3 north
  EXPECT_EQ(noc->telemetry().delivered, 1u);
  EXPECT_GT(deliveries[0].delivered_at.ns, 0.0);
}

TEST(MeshNocTest, SelfDeliveryHasZeroHops) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  int hops = -1;
  noc->SetDeliveryHandler({1, 1}, [&](const Delivery& d) { hops = d.hops; });
  ASSERT_TRUE(noc->Inject(MakePacket(1, {1, 1}, {1, 1})).ok());
  queue.Run();
  EXPECT_EQ(hops, 0);
}

TEST(MeshNocTest, RejectsOutOfBoundsEndpoints) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  EXPECT_FALSE(noc->Inject(MakePacket(1, {9, 0}, {1, 1})).ok());
  EXPECT_FALSE(noc->Inject(MakePacket(1, {0, 0}, {9, 9})).ok());
}

TEST(MeshNocTest, LatencyGrowsWithDistance) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(8, 8), &queue);
  ASSERT_TRUE(noc.ok());
  TimeNs near_latency{0.0}, far_latency{0.0};
  noc->SetDeliveryHandler({1, 0}, [&](const Delivery& d) {
    near_latency = d.delivered_at - d.packet.injected_at;
  });
  noc->SetDeliveryHandler({7, 7}, [&](const Delivery& d) {
    far_latency = d.delivered_at - d.packet.injected_at;
  });
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {1, 0})).ok());
  ASSERT_TRUE(noc->Inject(MakePacket(2, {0, 0}, {7, 7})).ok());
  queue.Run();
  EXPECT_GT(far_latency.ns, 5.0 * near_latency.ns);
}

TEST(MeshNocTest, ContentionSerializesOnSharedLink) {
  EventQueue queue;
  MeshParams params = SmallMesh();
  params.link_bandwidth_gbps = 1.0;  // 1 byte/ns — make serialization visible
  auto noc = MeshNoc::Create(params, &queue);
  ASSERT_TRUE(noc.ok());
  std::vector<TimeNs> arrivals;
  noc->SetDeliveryHandler({1, 0}, [&](const Delivery& d) {
    arrivals.push_back(d.delivered_at);
  });
  // Two 1000-byte packets over the same link back to back.
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {1, 0}, 1000)).ok());
  ASSERT_TRUE(noc->Inject(MakePacket(2, {0, 0}, {1, 0}, 1000)).ok());
  queue.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second arrival at least one serialization time (1000 ns) later.
  EXPECT_GE((arrivals[1] - arrivals[0]).ns, 999.0);
}

TEST(MeshNocTest, HigherPriorityClassWinsArbitration) {
  EventQueue queue;
  MeshParams params = SmallMesh();
  params.link_bandwidth_gbps = 0.1;  // slow link: long queue forms
  auto noc = MeshNoc::Create(params, &queue);
  ASSERT_TRUE(noc.ok());
  std::vector<std::uint64_t> order;
  noc->SetDeliveryHandler({1, 0}, [&](const Delivery& d) {
    order.push_back(d.packet.id);
  });
  // Fill the link with bulk traffic, then inject a control packet.
  ASSERT_TRUE(
      noc->Inject(MakePacket(1, {0, 0}, {1, 0}, 500, QosClass::kBulk)).ok());
  ASSERT_TRUE(
      noc->Inject(MakePacket(2, {0, 0}, {1, 0}, 500, QosClass::kBulk)).ok());
  ASSERT_TRUE(
      noc->Inject(MakePacket(3, {0, 0}, {1, 0}, 500, QosClass::kBulk)).ok());
  ASSERT_TRUE(
      noc->Inject(MakePacket(4, {0, 0}, {1, 0}, 64, QosClass::kControl))
          .ok());
  queue.Run();
  ASSERT_EQ(order.size(), 4u);
  // All four packets are queued before the link's first arbitration, so the
  // control packet overtakes every bulk packet.
  EXPECT_EQ(order[0], 4u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
}

TEST(MeshNocTest, FailedLinkTriggersDetour) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  int delivered = 0;
  noc->SetDeliveryHandler({2, 0}, [&](const Delivery&) { ++delivered; });
  ASSERT_TRUE(noc->SetLinkFailed({1, 0}, Direction::kEast, true).ok());
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {2, 0})).ok());
  queue.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(noc->telemetry().rerouted_hops, 0u);
}

TEST(MeshNocTest, FailedDestinationDropsPacket) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  DropReason reason{};
  int drops = 0;
  noc->SetDropHandler([&](const Packet&, DropReason r) {
    reason = r;
    ++drops;
  });
  ASSERT_TRUE(noc->SetNodeFailed({2, 2}, true).ok());
  // A dead destination is detectable at injection time: the packet is
  // counted (injected + dropped) and the caller learns immediately.
  EXPECT_EQ(noc->Inject(MakePacket(1, {0, 0}, {2, 2})).code(),
            ErrorCode::kUnavailable);
  queue.Run();
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(reason, DropReason::kNodeFailed);
  EXPECT_EQ(noc->telemetry().injected, 1u);
  EXPECT_EQ(noc->telemetry().dropped, 1u);
}

TEST(MeshNocTest, InjectFromFailedSourceRefused) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  ASSERT_TRUE(noc->SetNodeFailed({0, 0}, true).ok());
  EXPECT_EQ(noc->Inject(MakePacket(1, {0, 0}, {1, 1})).code(),
            ErrorCode::kUnavailable);
}

TEST(MeshNocTest, FullyCutRegionDropsAsUnroutable) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(2, 1), &queue);
  ASSERT_TRUE(noc.ok());
  int drops = 0;
  DropReason reason{};
  noc->SetDropHandler([&](const Packet&, DropReason r) {
    ++drops;
    reason = r;
  });
  // The only link east is failed and there is no second dimension to turn
  // into (1-row mesh).
  ASSERT_TRUE(noc->SetLinkFailed({0, 0}, Direction::kEast, true).ok());
  // No usable link out of the source: reported at injection, packet still
  // accounted for in telemetry as injected + dropped.
  EXPECT_EQ(noc->Inject(MakePacket(1, {0, 0}, {1, 0})).code(),
            ErrorCode::kFailedPrecondition);
  queue.Run(100000);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(reason, DropReason::kUnroutable);
  EXPECT_EQ(noc->telemetry().injected, 1u);
  EXPECT_EQ(noc->telemetry().dropped, 1u);
}

TEST(MeshNocTest, LinkRestoredAfterFailure) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(2, 1), &queue);
  ASSERT_TRUE(noc.ok());
  int delivered = 0;
  noc->SetDeliveryHandler({1, 0}, [&](const Delivery&) { ++delivered; });
  ASSERT_TRUE(noc->SetLinkFailed({0, 0}, Direction::kEast, true).ok());
  ASSERT_TRUE(noc->SetLinkFailed({0, 0}, Direction::kEast, false).ok());
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {1, 0})).ok());
  queue.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(MeshNocTest, PerStreamTelemetrySeparatesStreams) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  Packet a = MakePacket(1, {0, 0}, {1, 0});
  a.stream_id = 100;
  Packet b = MakePacket(2, {0, 0}, {3, 3});
  b.stream_id = 200;
  ASSERT_TRUE(noc->Inject(a).ok());
  ASSERT_TRUE(noc->Inject(b).ok());
  queue.Run();
  const RunningStat* s100 = noc->StreamLatency(100);
  const RunningStat* s200 = noc->StreamLatency(200);
  ASSERT_NE(s100, nullptr);
  ASSERT_NE(s200, nullptr);
  EXPECT_EQ(s100->count(), 1u);
  EXPECT_EQ(s200->count(), 1u);
  EXPECT_GT(s200->mean(), s100->mean());
  EXPECT_EQ(noc->StreamLatency(300), nullptr);
}

TEST(MeshNocTest, EnergyAccountedPerHopAndByte) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  ASSERT_TRUE(noc.ok());
  ASSERT_TRUE(noc->Inject(MakePacket(1, {0, 0}, {2, 0}, 100)).ok());
  queue.Run();
  const MeshParams& p = noc->params();
  const double expected =
      2.0 * (p.hop_energy_per_byte.pj * 100 + p.router_energy.pj);
  EXPECT_DOUBLE_EQ(noc->telemetry().cost.energy_pj, expected);
  EXPECT_DOUBLE_EQ(noc->telemetry().cost.bytes_moved, 200.0);
}

// Property sweep: every injected packet is delivered exactly once under
// random all-to-all traffic on a healthy mesh.
class NocDeliveryProperty : public ::testing::TestWithParam<int> {};

TEST_P(NocDeliveryProperty, AllPacketsDeliveredExactlyOnce) {
  const int packet_count = GetParam();
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(5, 5), &queue);
  ASSERT_TRUE(noc.ok());
  std::vector<int> delivered_by_id(packet_count + 1, 0);
  for (std::uint16_t x = 0; x < 5; ++x) {
    for (std::uint16_t y = 0; y < 5; ++y) {
      noc->SetDeliveryHandler({x, y}, [&](const Delivery& d) {
        ++delivered_by_id[d.packet.id];
      });
    }
  }
  cim::Rng rng(7 + packet_count);
  for (int i = 1; i <= packet_count; ++i) {
    const NodeId src{static_cast<std::uint16_t>(rng.NextBounded(5)),
                     static_cast<std::uint16_t>(rng.NextBounded(5))};
    const NodeId dst{static_cast<std::uint16_t>(rng.NextBounded(5)),
                     static_cast<std::uint16_t>(rng.NextBounded(5))};
    const auto bytes = static_cast<std::uint32_t>(32 + rng.NextBounded(256));
    ASSERT_TRUE(noc->Inject(MakePacket(i, src, dst, bytes)).ok());
  }
  queue.Run();
  for (int i = 1; i <= packet_count; ++i) {
    ASSERT_EQ(delivered_by_id[i], 1) << "packet " << i;
  }
  EXPECT_EQ(noc->telemetry().delivered,
            static_cast<std::uint64_t>(packet_count));
  EXPECT_EQ(noc->telemetry().dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(TrafficLoads, NocDeliveryProperty,
                         ::testing::Values(10, 100, 1000));

// A burst must be indistinguishable from per-packet injection: same
// deliveries, drops, times and telemetry — on the flat path (one event
// replays the admitted buffer) and on the reference path (a loop over
// Inject). The faulted mesh rejects packets mid-burst: a failed source is
// refused uncounted, a failed destination drops at admission, a dead-end
// node drops as unroutable at its source and mid-route, and failed links on
// XY routes force detours.
TEST(MeshNocTest, OwnedBurstMatchesPerPacketInjection) {
  struct Outcome {
    std::vector<std::uint64_t> ids;
    std::vector<double> times;
    std::vector<int> hops;
    std::vector<std::uint64_t> drop_ids;
    std::vector<DropReason> drop_reasons;
    std::uint64_t injected = 0, delivered = 0, dropped = 0, rerouted = 0;
    double energy_pj = 0.0;
    ErrorCode first_error = ErrorCode::kOk;
  };
  const auto run = [](NocPath path, bool burst_inject, bool faulted,
                      std::uint64_t packets) {
    EventQueue queue;
    MeshParams params = SmallMesh();
    params.path = path;
    auto noc = MeshNoc::Create(params, &queue);
    Outcome out;
    for (std::uint16_t x = 0; x < 4; ++x) {
      for (std::uint16_t y = 0; y < 4; ++y) {
        noc->SetDeliveryHandler({x, y}, [&out](const Delivery& d) {
          out.ids.push_back(d.packet.id);
          out.times.push_back(d.delivered_at.ns);
          out.hops.push_back(d.hops);
        });
      }
    }
    noc->SetDropHandler([&out](const Packet& p, DropReason reason) {
      out.drop_ids.push_back(p.id);
      out.drop_reasons.push_back(reason);
    });
    if (faulted) {
      EXPECT_TRUE(noc->SetNodeFailed({2, 2}, true).ok());
      EXPECT_TRUE(noc->SetNodeFailed({0, 3}, true).ok());
      EXPECT_TRUE(noc->SetLinkFailed({1, 0}, Direction::kEast, true).ok());
      EXPECT_TRUE(noc->SetLinkFailed({1, 0}, Direction::kNorth, true).ok());
      EXPECT_TRUE(noc->SetLinkFailed({2, 1}, Direction::kNorth, true).ok());
    }
    std::vector<Packet> burst;
    Rng rng(41);
    for (std::uint64_t i = 1; i <= packets; ++i) {
      const NodeId src{static_cast<std::uint16_t>(rng.NextBounded(4)),
                       static_cast<std::uint16_t>(rng.NextBounded(4))};
      const NodeId dst{static_cast<std::uint16_t>(rng.NextBounded(4)),
                       static_cast<std::uint16_t>(rng.NextBounded(4))};
      burst.push_back(MakePacket(i, src, dst));
    }
    if (burst_inject) {
      out.first_error = noc->InjectBurst(std::move(burst)).code();
    } else {
      for (Packet& p : burst) {
        const Status s = noc->Inject(std::move(p));
        if (out.first_error == ErrorCode::kOk) out.first_error = s.code();
      }
    }
    queue.Run();
    const NocTelemetry& t = noc->telemetry();
    out.injected = t.injected;
    out.delivered = t.delivered;
    out.dropped = t.dropped;
    out.rerouted = t.rerouted_hops;
    out.energy_pj = t.cost.energy_pj;
    return out;
  };
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted mesh" : "healthy mesh");
    const std::uint64_t packets = faulted ? 60 : 40;
    const Outcome flat_single = run(NocPath::kFlat, false, faulted, packets);
    const Outcome flat_burst = run(NocPath::kFlat, true, faulted, packets);
    const Outcome ref_burst = run(NocPath::kReference, true, faulted, packets);
    EXPECT_EQ(flat_single.injected,
              flat_single.delivered + flat_single.dropped);
    if (faulted) {
      // Every fault kind fires: refused sources, admission drops of both
      // reasons, mid-route drops and detours.
      EXPECT_LT(flat_single.injected, packets);
      EXPECT_NE(flat_single.first_error, ErrorCode::kOk);
      EXPECT_GT(flat_single.dropped, 0u);
      EXPECT_GT(flat_single.rerouted, 0u);
      for (const DropReason reason :
           {DropReason::kNodeFailed, DropReason::kUnroutable}) {
        EXPECT_NE(std::find(flat_single.drop_reasons.begin(),
                            flat_single.drop_reasons.end(), reason),
                  flat_single.drop_reasons.end());
      }
    } else {
      EXPECT_EQ(flat_single.injected, packets);
      EXPECT_EQ(flat_single.delivered, packets);
      EXPECT_EQ(flat_single.first_error, ErrorCode::kOk);
    }
    for (const Outcome* other : {&flat_burst, &ref_burst}) {
      EXPECT_EQ(flat_single.ids, other->ids);
      EXPECT_EQ(flat_single.times, other->times);
      EXPECT_EQ(flat_single.hops, other->hops);
      EXPECT_EQ(flat_single.drop_ids, other->drop_ids);
      EXPECT_EQ(flat_single.drop_reasons, other->drop_reasons);
      EXPECT_EQ(flat_single.injected, other->injected);
      EXPECT_EQ(flat_single.delivered, other->delivered);
      EXPECT_EQ(flat_single.dropped, other->dropped);
      EXPECT_EQ(flat_single.rerouted, other->rerouted);
      EXPECT_EQ(flat_single.energy_pj, other->energy_pj);
      EXPECT_EQ(flat_single.first_error, other->first_error);
    }
  }
}

// Out-of-bounds packets in a burst surface kInvalidArgument and are
// never counted; the in-bounds remainder still flows.
TEST(MeshNocTest, OwnedBurstSkipsOutOfBoundsUncounted) {
  EventQueue queue;
  auto noc = MeshNoc::Create(SmallMesh(), &queue);
  std::vector<Packet> burst;
  burst.push_back(MakePacket(1, {0, 0}, {3, 3}));
  burst.push_back(MakePacket(2, {0, 0}, {9, 9}));  // out of bounds
  burst.push_back(MakePacket(3, {1, 1}, {2, 2}));
  EXPECT_EQ(noc->InjectBurst(std::move(burst)).code(),
            ErrorCode::kInvalidArgument);
  queue.Run();
  EXPECT_EQ(noc->telemetry().injected, 2u);
  EXPECT_EQ(noc->telemetry().delivered, 2u);
  EXPECT_EQ(noc->telemetry().dropped, 0u);
}

}  // namespace
}  // namespace cim::noc
