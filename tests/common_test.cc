// Unit tests for the common substrate: status/expected, RNG, units, stats,
// and the discrete-event queue.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/quantize.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace cim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = InvalidArgument("bad rows");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad rows");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kUnimplemented); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.value_or(-1), 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e(NotFound("missing"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ExpectedTest, ArrowAndStar) {
  Expected<std::string> e(std::string("cim"));
  EXPECT_EQ(e->size(), 3u);
  EXPECT_EQ(*e, "cim");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.Fork();
  // Child stream differs from the parent continuation.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.NextU64() != child.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, BoundedHasNoObviousBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 10 * 0.15);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Gaussian(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

// DiscardGaussians(k) must leave the generator exactly where k Gaussian()
// calls would: same next variates, same raw stream — starting with and
// without a cached second variate, for even and odd k.
TEST(RngTest, DiscardGaussiansMatchesDrawing) {
  for (const bool cached : {false, true}) {
    for (std::size_t k = 0; k <= 5; ++k) {
      Rng drawn(23 + k);
      Rng discarded(23 + k);
      if (cached) {
        EXPECT_EQ(drawn.Gaussian(), discarded.Gaussian());
      }
      for (std::size_t i = 0; i < k; ++i) drawn.Gaussian();
      discarded.DiscardGaussians(k);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(drawn.Gaussian(), discarded.Gaussian())
            << "k=" << k << " cached=" << cached << " draw " << i;
      }
      EXPECT_EQ(drawn.NextU64(), discarded.NextU64())
          << "k=" << k << " cached=" << cached;
    }
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Exponential(0.5));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
}

TEST(RngTest, ZipfStaysInRangeAndSkews) {
  Rng rng(19);
  std::uint64_t ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t r = rng.Zipf(100, 1.2);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
    if (r == 1) ++ones;
  }
  // Rank 1 must dominate a uniform draw (which would give ~100 hits).
  EXPECT_GT(ones, 1000u);
}

TEST(UnitsTest, TimeArithmeticAndConversions) {
  const TimeNs t = TimeNs::Micros(2.0) + TimeNs(500.0);
  EXPECT_DOUBLE_EQ(t.ns, 2500.0);
  EXPECT_DOUBLE_EQ(t.seconds(), 2.5e-6);
  EXPECT_DOUBLE_EQ((t * 2.0).ns, 5000.0);
  EXPECT_DOUBLE_EQ(TimeNs::Seconds(1.0) / TimeNs::Millis(1.0), 1000.0);
}

TEST(UnitsTest, EnergyArithmeticAndConversions) {
  const EnergyPj e = EnergyPj::Nano(1.0) + EnergyPj(500.0);
  EXPECT_DOUBLE_EQ(e.pj, 1500.0);
  EXPECT_DOUBLE_EQ(EnergyPj::Milli(1.0).joules(), 1e-3);
}

TEST(UnitsTest, PowerIsEnergyOverTime) {
  // 1000 pJ over 1000 ns = 1 mW.
  EXPECT_DOUBLE_EQ(AveragePowerWatts(EnergyPj(1000.0), TimeNs(1000.0)), 1e-3);
  EXPECT_DOUBLE_EQ(AveragePowerWatts(EnergyPj(1.0), TimeNs(0.0)), 0.0);
}

TEST(UnitsTest, BandwidthFromBytesAndTime) {
  EXPECT_DOUBLE_EQ(BandwidthBytesPerSec(1e9, TimeNs::Seconds(1.0)), 1e9);
}

TEST(UnitsTest, Formatters) {
  EXPECT_EQ(FormatTime(TimeNs::Seconds(2.0)), "2 s");
  EXPECT_EQ(FormatTime(TimeNs(1.0)), "1 ns");
  EXPECT_EQ(FormatEnergy(EnergyPj(1.0)), "1 pJ");
  EXPECT_EQ(FormatPowerWatts(3.0), "3 W");
}

TEST(RunningStatTest, Basics) {
  RunningStat stat;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stat.Add(x);
  EXPECT_EQ(stat.count(), 4u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);
  EXPECT_NEAR(stat.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(CostReportTest, AccumulationAndDerived) {
  CostReport a{.latency_ns = 100.0, .energy_pj = 200.0, .bytes_moved = 64.0,
               .operations = 10};
  CostReport b{.latency_ns = 50.0, .energy_pj = 100.0, .bytes_moved = 0.0,
               .operations = 5};
  const CostReport sum = a + b;
  EXPECT_DOUBLE_EQ(sum.latency_ns, 150.0);
  EXPECT_DOUBLE_EQ(sum.energy_pj, 300.0);
  EXPECT_EQ(sum.operations, 15u);
  const TimeNs duration(sum.latency_ns);
  EXPECT_DOUBLE_EQ(AveragePowerWatts(EnergyPj(sum.energy_pj), duration),
                   300.0 / 150.0 * 1e-3);
  EXPECT_DOUBLE_EQ(BandwidthBytesPerSec(sum.bytes_moved, duration),
                   64.0 / 150e-9);
}

TEST(EventQueueTest, RunsInTimestampOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(TimeNs(30.0), [&] { order.push_back(3); });
  queue.ScheduleAt(TimeNs(10.0), [&] { order.push_back(1); });
  queue.ScheduleAt(TimeNs(20.0), [&] { order.push_back(2); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now().ns, 30.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(TimeNs(5.0), [&] { order.push_back(1); });
  queue.ScheduleAt(TimeNs(5.0), [&] { order.push_back(2); });
  queue.ScheduleAt(TimeNs(5.0), [&] { order.push_back(3); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.ScheduleAt(TimeNs(1.0), [&] {
    ++fired;
    queue.ScheduleAfter(TimeNs(1.0), [&] { ++fired; });
  });
  queue.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now().ns, 2.0);
}

TEST(EventQueueTest, RunUntilAdvancesClockThroughIdleTime) {
  EventQueue queue;
  int fired = 0;
  queue.ScheduleAt(TimeNs(10.0), [&] { ++fired; });
  queue.ScheduleAt(TimeNs(100.0), [&] { ++fired; });
  const std::uint64_t executed = queue.RunUntil(TimeNs(50.0));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(queue.now().ns, 50.0);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, PastEventsRunAtCurrentTime) {
  EventQueue queue;
  queue.ScheduleAt(TimeNs(10.0), [] {});
  queue.Run();
  TimeNs observed{-1.0};
  queue.ScheduleAt(TimeNs(5.0), [&] { observed = queue.now(); });
  queue.Run();
  EXPECT_DOUBLE_EQ(observed.ns, 10.0);
}

TEST(EventQueueTest, MaxEventsGuard) {
  EventQueue queue;
  std::function<void()> reschedule = [&] {
    queue.ScheduleAfter(TimeNs(1.0), reschedule);
  };
  queue.ScheduleAt(TimeNs(0.0), reschedule);
  const std::uint64_t executed = queue.Run(100);
  EXPECT_EQ(executed, 100u);
}

TEST(QuantizeTest, SymmetricRoundtripWithinStep) {
  SymmetricQuantizer q{.bits = 8, .range = 1.0};
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-1.0, 1.0);
    EXPECT_NEAR(q.Roundtrip(x), x, q.step() / 2 + 1e-12);
  }
}

TEST(QuantizeTest, SymmetricClampsOutOfRange) {
  SymmetricQuantizer q{.bits = 4, .range = 1.0};
  EXPECT_EQ(q.Encode(5.0), q.max_code());
  EXPECT_EQ(q.Encode(-5.0), -q.max_code());
}

TEST(QuantizeTest, UnsignedLevels) {
  UnsignedQuantizer q{.bits = 2, .range = 3.0};
  EXPECT_EQ(q.levels(), 4u);
  EXPECT_EQ(q.Encode(0.0), 0u);
  EXPECT_EQ(q.Encode(3.0), 3u);
  EXPECT_DOUBLE_EQ(q.Decode(3), 3.0);
}

TEST(QuantizeTest, SlicesNeeded) {
  EXPECT_EQ(SlicesNeeded(8, 2), 4);   // 7 magnitude bits / 2 -> 4
  EXPECT_EQ(SlicesNeeded(8, 4), 2);
  EXPECT_EQ(SlicesNeeded(2, 2), 1);
  EXPECT_EQ(SlicesNeeded(16, 4), 4);
}

}  // namespace
}  // namespace cim
