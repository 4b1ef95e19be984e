// BrokerCrashSchedule: the counter-based fail-stop crash–recover process.
#include "net/broker_lifecycle.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dcrd {
namespace {

TEST(BrokerCrashScheduleTest, DefaultAndZeroMtbfAreDisabled) {
  const BrokerCrashSchedule none;
  EXPECT_FALSE(none.enabled());
  const BrokerCrashSchedule zero(42, SimDuration::Zero(),
                                 SimDuration::Seconds(5));
  EXPECT_FALSE(zero.enabled());
  for (std::uint32_t n = 0; n < 8; ++n) {
    for (std::int64_t s = 0; s < 100; s += 7) {
      const SimTime t = SimTime::FromMicros(s * 1'000'000);
      EXPECT_TRUE(none.Up(NodeId(n), t));
      EXPECT_TRUE(zero.Up(NodeId(n), t));
    }
    EXPECT_TRUE(none.UpThroughout(NodeId(n), SimTime(),
                                  SimTime::FromMicros(3'600'000'000)));
    EXPECT_FALSE(zero.DownDuring(NodeId(n), SimTime(),
                                 SimTime::FromMicros(3'600'000'000)));
  }
}

TEST(BrokerCrashScheduleTest, StationaryDownFractionIsMttrOverMtbfPlusMttr) {
  const BrokerCrashSchedule schedule(7, SimDuration::Seconds(60),
                                     SimDuration::Seconds(5));
  ASSERT_TRUE(schedule.enabled());
  const double expected = 5.0 / 65.0;
  EXPECT_DOUBLE_EQ(schedule.down_fraction(), expected);
  std::uint64_t down = 0, total = 0;
  for (std::uint32_t node = 0; node < 100; ++node) {
    for (std::int64_t epoch = 0; epoch < 1000; ++epoch) {
      const SimTime t = SimTime::FromMicros(epoch * 1'000'000);
      down += schedule.Up(NodeId(node), t) ? 0 : 1;
      ++total;
    }
  }
  const double observed = static_cast<double>(down) /
                          static_cast<double>(total);
  EXPECT_NEAR(observed, expected, 0.01);
}

TEST(BrokerCrashScheduleTest, OutagesLastAtLeastMttrEpochs) {
  // MTTR 5s at a 1s epoch: every maximal down run spans >= 5 epochs
  // (overlapping starts can extend a run, never shorten it). The trailing
  // run is skipped — the scan end clips it, not the schedule.
  const BrokerCrashSchedule schedule(11, SimDuration::Seconds(30),
                                     SimDuration::Seconds(5));
  for (std::uint32_t node = 0; node < 20; ++node) {
    int run = 0;
    for (std::int64_t epoch = 0; epoch < 2000; ++epoch) {
      const SimTime t = SimTime::FromMicros(epoch * 1'000'000);
      if (!schedule.Up(NodeId(node), t)) {
        ++run;
      } else {
        if (run > 0) {
          EXPECT_GE(run, 5) << "node " << node << " epoch " << epoch;
        }
        run = 0;
      }
    }
  }
}

TEST(BrokerCrashScheduleTest, WindowQueriesMatchPerEpochSampling) {
  const BrokerCrashSchedule schedule(3, SimDuration::Seconds(20),
                                     SimDuration::Seconds(3));
  const NodeId node(4);
  for (std::int64_t start = 0; start < 200; start += 5) {
    const SimTime t0 = SimTime::FromMicros(start * 1'000'000 + 250'000);
    const SimTime t1 = SimTime::FromMicros((start + 7) * 1'000'000 + 750'000);
    bool all_up = true;
    for (std::int64_t epoch = start; epoch <= start + 7; ++epoch) {
      all_up = all_up &&
               schedule.Up(node, SimTime::FromMicros(epoch * 1'000'000 +
                                                     500'000));
    }
    EXPECT_EQ(schedule.UpThroughout(node, t0, t1), all_up);
    EXPECT_EQ(schedule.DownDuring(node, t0, t1), !all_up);
  }
}

TEST(BrokerCrashScheduleTest, DeterministicPerSeedAndDivergentAcrossSeeds) {
  const BrokerCrashSchedule a(99, SimDuration::Seconds(40),
                              SimDuration::Seconds(4));
  const BrokerCrashSchedule b(99, SimDuration::Seconds(40),
                              SimDuration::Seconds(4));
  const BrokerCrashSchedule c(100, SimDuration::Seconds(40),
                              SimDuration::Seconds(4));
  bool diverged = false;
  for (std::uint32_t node = 0; node < 10; ++node) {
    for (std::int64_t epoch = 0; epoch < 500; ++epoch) {
      const SimTime t = SimTime::FromMicros(epoch * 1'000'000);
      ASSERT_EQ(a.Up(NodeId(node), t), b.Up(NodeId(node), t));
      diverged = diverged || (a.Up(NodeId(node), t) != c.Up(NodeId(node), t));
    }
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace dcrd
