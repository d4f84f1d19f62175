// Tests for the event-driven mesh interconnect.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "noc/mesh.h"
#include "noc_reference.h"

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
  // NaN slips past a `<= 0` test and would reach every event time; negative
  // or non-finite latencies and energies would reach every hop's cost.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double (*)(MeshParams&, double)> fields = {
      [](MeshParams& m, double v) { return m.link_bandwidth_gbps = v; },
      [](MeshParams& m, double v) { return m.router_latency.ns = v; },
      [](MeshParams& m, double v) { return m.link_latency.ns = v; },
      [](MeshParams& m, double v) { return m.hop_energy_per_byte.pj = v; },
      [](MeshParams& m, double v) { return m.router_energy.pj = v; },
  };
  for (std::size_t f = 0; f < fields.size(); ++f) {
    for (const double bad : {kNaN, kInf, -kInf, -1.0}) {
      p = SmallMesh();
      fields[f](p, bad);
      EXPECT_FALSE(p.Validate().ok()) << "field " << f << " = " << bad;
      EventQueue queue;
      EXPECT_FALSE(MeshNoc::Create(p, &queue).ok());
    }
    // Zero is a legal latency or energy (an ideal wire), not a bandwidth.
    p = SmallMesh();
    fields[f](p, 0.0);
    EXPECT_EQ(p.Validate().ok(), f != 0) << "field " << f << " = 0";
  }
}

// Validate only: an over-bound mesh is never built (65535 x 65535 would
// allocate ~4.3e9 nodes and four links per node).
TEST(MeshParamsTest, SizeAndPerEventCostsBounded) {
  EXPECT_TRUE(SmallMesh(256, 256).Validate().ok());
  EXPECT_TRUE(SmallMesh(65535, 1).Validate().ok());
  for (const auto& [w, h] : {std::pair<std::uint16_t, std::uint16_t>{257, 256},
                            {256, 257},
                            {65535, 2},
                            {65535, 65535}}) {
    EXPECT_EQ(SmallMesh(w, h).Validate().code(), ErrorCode::kInvalidArgument)
        << w << "x" << h;
  }
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<std::pair<double (*)(MeshParams&, double), double>>
      ceilings = {
          {[](MeshParams& m, double v) { return m.router_latency.ns = v; },
           kMaxEventLatencyNs},
          {[](MeshParams& m, double v) { return m.link_latency.ns = v; },
           kMaxEventLatencyNs},
          {[](MeshParams& m, double v) {
             return m.hop_energy_per_byte.pj = v;
           },
           kMaxEventEnergyPj},
          {[](MeshParams& m, double v) { return m.router_energy.pj = v; },
           kMaxEventEnergyPj},
      };
  for (const auto& [set, ceiling] : ceilings) {
    MeshParams p = SmallMesh();
    set(p, ceiling);
    EXPECT_TRUE(p.Validate().ok()) << ceiling;
    for (const double over : {std::nextafter(ceiling, kMax), kMax}) {
      set(p, over);
      EXPECT_FALSE(p.Validate().ok()) << over;
    }
  }
  // One byte's serialization is capped at 1 s: bandwidth >= 1e-9 GB/s.
  MeshParams p = SmallMesh();
  p.link_bandwidth_gbps = 1.0 / kMaxEventLatencyNs;
  EXPECT_TRUE(p.Validate().ok());
  for (const double slow : {std::nextafter(1.0 / kMaxEventLatencyNs, 0.0),
                            std::numeric_limits<double>::denorm_min()}) {
    p.link_bandwidth_gbps = slow;
    EXPECT_FALSE(p.Validate().ok()) << slow;
  }
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

// --- differential property: MeshNoc against the reference mesh -----------
//
// A scenario is a mesh, faults armed before any traffic, and a timeline of
// actions scheduled on the shared EventQueue: injection windows and fault
// toggles (fail or restore a node or a link), so faults also land while
// packets are queued on links and in flight.

struct FaultAction {
  bool node = false;  // node fault, else link fault
  NodeId where;
  Direction dir = Direction::kEast;
  bool failed = true;
};

struct TimedAction {
  TimeNs at{0.0};
  std::vector<Packet> window;  // injected when non-empty, else `fault`
  FaultAction fault;
};

struct Scenario {
  MeshParams params;
  std::vector<FaultAction> initial_faults;
  std::vector<TimedAction> timeline;  // scheduled in this order
  std::uint64_t streams = 0;          // every stream id is below this
};

// Everything a carrier exposes, compared field for field (doubles exactly).
struct Outcome {
  std::vector<std::tuple<std::uint64_t, double, int>> deliveries;
  std::vector<std::pair<std::uint64_t, DropReason>> drops;
  std::vector<ErrorCode> window_errors;  // first non-ok code per window
  ErrorCode first_error = ErrorCode::kOk;
  std::uint64_t injected = 0, delivered = 0, dropped = 0, rerouted = 0;
  std::vector<double> cost;     // latency_ns, energy_pj, bytes_moved, ops
  std::vector<double> latency;  // StatFields(latency_ns)
  std::vector<std::vector<double>> streams;  // empty when no stats
};

std::vector<double> StatFields(const RunningStat& s) {
  return {static_cast<double>(s.count()), s.sum(), s.mean(), s.variance(),
          s.min(), s.max()};
}

enum class Entry { kPerPacket, kBurst };

template <typename Mesh>
void ApplyFault(Mesh& mesh, const FaultAction& f) {
  const Status s = f.node ? mesh.SetNodeFailed(f.where, f.failed)
                          : mesh.SetLinkFailed(f.where, f.dir, f.failed);
  EXPECT_TRUE(s.ok()) << s.message();
}

template <typename Mesh>
Outcome RunScenario(const Scenario& sc, Entry entry) {
  EventQueue queue;
  auto created = Mesh::Create(sc.params, &queue);
  CIM_CHECK(created.ok());
  Mesh& mesh = *created;
  Outcome out;
  for (std::uint16_t x = 0; x < sc.params.width; ++x) {
    for (std::uint16_t y = 0; y < sc.params.height; ++y) {
      mesh.SetDeliveryHandler({x, y}, [&out](const Delivery& d) {
        out.deliveries.emplace_back(d.packet.id, d.delivered_at.ns, d.hops);
      });
    }
  }
  mesh.SetDropHandler([&out](const Packet& p, DropReason reason) {
    out.drops.emplace_back(p.id, reason);
  });
  for (const FaultAction& f : sc.initial_faults) ApplyFault(mesh, f);
  for (const TimedAction& action : sc.timeline) {
    queue.ScheduleAt(action.at, [&mesh, &out, &action, entry] {
      if (action.window.empty()) {
        ApplyFault(mesh, action.fault);
        return;
      }
      Status first = Status::Ok();
      if (entry == Entry::kBurst) {
        first = mesh.InjectBurst(std::vector<Packet>(action.window));
      } else {
        for (const Packet& p : action.window) {
          Status s = mesh.Inject(p);
          if (!s.ok() && first.ok()) first = std::move(s);
        }
      }
      out.window_errors.push_back(first.code());
      if (out.first_error == ErrorCode::kOk) out.first_error = first.code();
    });
  }
  queue.Run();
  const NocTelemetry& t = mesh.telemetry();
  out.injected = t.injected;
  out.delivered = t.delivered;
  out.dropped = t.dropped;
  out.rerouted = t.rerouted_hops;
  out.cost = {t.cost.latency_ns, t.cost.energy_pj, t.cost.bytes_moved,
              static_cast<double>(t.cost.operations)};
  out.latency = StatFields(t.latency_ns);
  for (std::uint64_t stream = 0; stream < sc.streams; ++stream) {
    const RunningStat* stat = mesh.StreamLatency(stream);
    out.streams.push_back(stat != nullptr ? StatFields(*stat)
                                          : std::vector<double>{});
  }
  return out;
}

void ExpectSameOutcome(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.deliveries, got.deliveries);
  EXPECT_EQ(want.drops, got.drops);
  EXPECT_EQ(want.window_errors, got.window_errors);
  EXPECT_EQ(want.first_error, got.first_error);
  EXPECT_EQ(want.injected, got.injected);
  EXPECT_EQ(want.delivered, got.delivered);
  EXPECT_EQ(want.dropped, got.dropped);
  EXPECT_EQ(want.rerouted, got.rerouted);
  EXPECT_EQ(want.cost, got.cost);
  EXPECT_EQ(want.latency, got.latency);
  EXPECT_EQ(want.streams, got.streams);
}

// Runs `sc` through MeshNoc per-packet Inject, MeshNoc InjectBurst and the
// reference mesh; all three must agree. Returns the per-packet outcome.
Outcome ExpectCarriersAgree(const Scenario& sc) {
  const Outcome single = RunScenario<MeshNoc>(sc, Entry::kPerPacket);
  {
    SCOPED_TRACE("MeshNoc InjectBurst");
    ExpectSameOutcome(single, RunScenario<MeshNoc>(sc, Entry::kBurst));
  }
  {
    SCOPED_TRACE("reference mesh");
    ExpectSameOutcome(single, RunScenario<ReferenceMesh>(sc, Entry::kBurst));
  }
  EXPECT_EQ(single.injected, single.delivered + single.dropped);
  return single;
}

// A random scenario: mesh 1x1..6x6 at a bandwidth slow enough to queue,
// mixed QoS classes and payload sizes (some endpoints outside the mesh),
// up to three faults armed before traffic, and a timeline of injection
// windows interleaved with fault and restore events.
Scenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario sc;
  sc.params.width = static_cast<std::uint16_t>(1 + rng.NextBounded(6));
  sc.params.height = static_cast<std::uint16_t>(1 + rng.NextBounded(6));
  constexpr std::array<double, 3> kBandwidths = {0.5, 2.0, 16.0};
  sc.params.link_bandwidth_gbps = kBandwidths[rng.NextBounded(3)];
  sc.streams = 6;
  const auto node = [&] {
    return NodeId{static_cast<std::uint16_t>(rng.NextBounded(sc.params.width)),
                  static_cast<std::uint16_t>(
                      rng.NextBounded(sc.params.height))};
  };
  const auto fault = [&](bool failed) {
    FaultAction f;
    f.where = node();
    f.dir = static_cast<Direction>(rng.NextBounded(kDirectionCount));
    f.failed = failed;
    const bool link_in_mesh =
        (f.dir == Direction::kEast && f.where.x + 1 < sc.params.width) ||
        (f.dir == Direction::kWest && f.where.x > 0) ||
        (f.dir == Direction::kNorth && f.where.y + 1 < sc.params.height) ||
        (f.dir == Direction::kSouth && f.where.y > 0);
    f.node = !link_in_mesh || rng.NextBounded(4) == 0;
    return f;
  };
  for (std::uint64_t n = rng.NextBounded(4); n > 0; --n) {
    sc.initial_faults.push_back(fault(true));
  }
  std::uint64_t next_id = 1;
  for (std::uint64_t n = 2 + rng.NextBounded(12); n > 0; --n) {
    TimedAction action;
    action.at = TimeNs(static_cast<double>(rng.NextBounded(6000)));
    if (rng.NextBounded(2) == 0) {
      action.fault = fault(rng.NextBounded(3) != 0);
    } else {
      for (std::uint64_t k = 1 + rng.NextBounded(40); k > 0; --k) {
        Packet p;
        p.id = next_id++;
        p.stream_id = rng.NextBounded(sc.streams);
        p.source = node();
        p.destination = node();
        if (rng.NextBounded(40) == 0) p.destination.x = sc.params.width;
        p.payload_bytes = static_cast<std::uint32_t>(1 + rng.NextBounded(1024));
        p.qos = static_cast<QosClass>(rng.NextBounded(kQosClassCount));
        action.window.push_back(std::move(p));
      }
    }
    sc.timeline.push_back(std::move(action));
  }
  return sc;
}

// MeshNoc's two ways in and the independent reference mesh must agree on
// every delivery (id, time, hops), every drop (id, reason), every window's
// status, every telemetry field and every stream's latency stats.
//
// Two fixed 4x4 scenarios (one window at t = 0) come first. The faulted one
// rejects packets mid-burst: a failed source is refused uncounted, a failed
// destination drops at admission, a dead-end node drops as unroutable at
// its source and mid-route, and failed links on XY routes force detours.
// The seeded scenarios then fail and restore nodes and links while packets
// are queued and in flight.
TEST(MeshNocTest, OwnedBurstMatchesPerPacketInjection) {
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted 4x4 mesh" : "healthy 4x4 mesh");
    const std::uint64_t packets = faulted ? 60 : 40;
    Scenario sc;
    sc.params = SmallMesh();
    sc.streams = packets + 1;
    if (faulted) {
      sc.initial_faults = {{true, {2, 2}}, {true, {0, 3}},
                           {false, {1, 0}, Direction::kEast},
                           {false, {1, 0}, Direction::kNorth},
                           {false, {2, 1}, Direction::kNorth}};
    }
    TimedAction window;
    Rng rng(41);
    for (std::uint64_t i = 1; i <= packets; ++i) {
      const NodeId src{static_cast<std::uint16_t>(rng.NextBounded(4)),
                       static_cast<std::uint16_t>(rng.NextBounded(4))};
      const NodeId dst{static_cast<std::uint16_t>(rng.NextBounded(4)),
                       static_cast<std::uint16_t>(rng.NextBounded(4))};
      window.window.push_back(MakePacket(i, src, dst));
    }
    sc.timeline.push_back(std::move(window));
    const Outcome out = ExpectCarriersAgree(sc);
    if (faulted) {
      // Every fault kind fires: refused sources, admission drops of both
      // reasons, mid-route drops and detours.
      EXPECT_LT(out.injected, packets);
      EXPECT_NE(out.first_error, ErrorCode::kOk);
      EXPECT_GT(out.dropped, 0u);
      EXPECT_GT(out.rerouted, 0u);
      for (const DropReason reason :
           {DropReason::kNodeFailed, DropReason::kUnroutable}) {
        EXPECT_TRUE(std::any_of(out.drops.begin(), out.drops.end(),
                                [reason](const auto& drop) {
                                  return drop.second == reason;
                                }));
      }
    } else {
      EXPECT_EQ(out.injected, packets);
      EXPECT_EQ(out.delivered, packets);
      EXPECT_EQ(out.first_error, ErrorCode::kOk);
    }
  }

  // Across the seeds every outcome kind must occur, or the property is
  // not exercising what it claims to.
  std::set<ErrorCode> errors;
  std::set<DropReason> reasons;
  std::uint64_t rerouted = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome out = ExpectCarriersAgree(RandomScenario(seed));
    if (HasFailure()) return;
    errors.insert(out.window_errors.begin(), out.window_errors.end());
    for (const auto& drop : out.drops) reasons.insert(drop.second);
    rerouted += out.rerouted;
  }
  EXPECT_EQ(errors, (std::set<ErrorCode>{ErrorCode::kOk,
                                         ErrorCode::kInvalidArgument,
                                         ErrorCode::kUnavailable,
                                         ErrorCode::kFailedPrecondition}));
  EXPECT_EQ(reasons, (std::set<DropReason>{DropReason::kUnroutable,
                                           DropReason::kNodeFailed}));
  EXPECT_GT(rerouted, 0u);
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
