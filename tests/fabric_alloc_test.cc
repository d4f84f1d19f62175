// Allocation regression test for arch::Fabric's stream hops: once its pools
// have grown, a data payload crossing tiles, the mesh and the link cipher
// must not touch the heap. This binary replaces the global operator
// new/delete with counting versions, which is why it is a test executable
// of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "arch/fabric.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The nothrow forms call these; the aligned forms are left to the library.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cim::arch {
namespace {

constexpr std::size_t kPayloadsPerRound = 1200;
constexpr std::size_t kPayloadLen = 8;
constexpr double kGapNs = 15.0;  // tight enough that streams share links

// One open-loop round: payloads alternate between streams 1 and 2 every
// kGapNs, then the fabric drains. Returns the allocations made meanwhile.
std::uint64_t RunRound(Fabric& fabric, std::vector<std::vector<double>>& in) {
  EventQueue& queue = fabric.queue();
  const double t0 = queue.now().ns;
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    queue.RunUntil(TimeNs(t0 + kGapNs * static_cast<double>(i)));
    if (!fabric.InjectData(1 + i % 2, std::move(in[i])).ok()) break;
  }
  queue.Run();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(FabricAllocationTest, SteadyStateStreamHopsDoNotAllocate) {
  FabricParams params;
  params.mesh.width = 8;
  params.mesh.height = 8;
  params.encrypt_data = true;
  auto created = Fabric::Create(params);
  ASSERT_TRUE(created.ok());
  Fabric& fabric = **created;
  for (std::uint16_t y = 0; y < 8; ++y) {
    for (std::uint16_t x = 0; x < 8; ++x) {
      auto tile = fabric.TileAt({x, y});
      ASSERT_TRUE(tile.ok());
      ASSERT_TRUE((*tile)
                      ->micro_unit(0)
                      .LoadProgram({{OpCode::kAddScalar, 0.25},
                                    {OpCode::kMulScalar, 0.5}})
                      .ok());
    }
  }
  // Two multi-hop static streams whose routes cross; no sink.
  ASSERT_TRUE(fabric.ConfigureStream(1, {{0, 0}, {7, 0}, {7, 7}, {0, 7}}).ok());
  ASSERT_TRUE(fabric.ConfigureStream(2, {{1, 6}, {6, 1}, {6, 6}, {1, 1}}).ok());

  // Every payload exists before counting starts; the fabric takes each by
  // move.
  std::vector<std::vector<std::vector<double>>> rounds(2);
  for (auto& round : rounds) {
    for (std::size_t i = 0; i < kPayloadsPerRound; ++i) {
      round.emplace_back(kPayloadLen, static_cast<double>(i));
    }
  }
  const std::uint64_t warm_up = RunRound(fabric, rounds[0]);
  const std::uint64_t steady = RunRound(fabric, rounds[1]);
  // The pools grow in the warm-up round, so a counter that reads 0 there
  // is not counting (say, a sanitizer's operator new took precedence).
  EXPECT_GT(warm_up, 0u);
  EXPECT_EQ(steady, 0u) << static_cast<double>(steady) / kPayloadsPerRound
                        << " allocations per payload after warm-up ("
                        << warm_up << " in the warm-up round)";

  for (const std::uint64_t stream : {1, 2}) {
    const StreamStats* stats = fabric.StatsFor(stream);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->injected, kPayloadsPerRound);
    EXPECT_EQ(stats->completed, kPayloadsPerRound);
    EXPECT_EQ(stats->failed, 0u);
  }
  EXPECT_EQ(fabric.noc().telemetry().delivered, 2 * kPayloadsPerRound * 3);
  EXPECT_EQ(fabric.packets_in_flight(), 0u);
}

}  // namespace
}  // namespace cim::arch
