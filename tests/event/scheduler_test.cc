#include "event/scheduler.h"

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

// One level-0 rotation of the wheel is 2048 us; delays beyond that insert
// into level >= 1 and cascade down as the clock advances.
constexpr std::int64_t kRotation = 2048;
// Ticks the wheel's four levels index: the scheduler's whole range.
constexpr std::int64_t kRange = std::int64_t{1} << 44;

TEST(SchedulerTest, StartsAtZeroAndEmpty) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.now(), SimTime::Zero());
  EXPECT_TRUE(scheduler.empty());
  EXPECT_FALSE(scheduler.Step());
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(30));
}

TEST(SchedulerTest, TiesBreakInSchedulingOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.ScheduleAt(SimTime::FromMicros(100),
                         [&order, i] { order.push_back(i); });
  }
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ClockAdvancesDuringExecution) {
  Scheduler scheduler;
  SimTime observed;
  scheduler.ScheduleAfter(SimDuration::Millis(5),
                          [&] { observed = scheduler.now(); });
  scheduler.Run();
  EXPECT_EQ(observed, SimTime::FromMicros(5000));
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler scheduler;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) scheduler.ScheduleAfter(SimDuration::Millis(1), chain);
  };
  scheduler.ScheduleAfter(SimDuration::Millis(1), chain);
  scheduler.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(10'000));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler scheduler;
  bool ran = false;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(scheduler.Cancel(handle));
  scheduler.Run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelTwiceReturnsFalse) {
  Scheduler scheduler;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  EXPECT_TRUE(scheduler.Cancel(handle));
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, CancelAfterExecutionReturnsFalse) {
  Scheduler scheduler;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  scheduler.Run();
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, DefaultHandleCancelIsNoop) {
  Scheduler scheduler;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, PendingCountExcludesTombstones) {
  Scheduler scheduler;
  const EventHandle a = scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  scheduler.ScheduleAfter(SimDuration::Millis(2), [] {});
  EXPECT_EQ(scheduler.pending_count(), 2U);
  scheduler.Cancel(a);
  EXPECT_EQ(scheduler.pending_count(), 1U);
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  scheduler.RunUntil(SimTime::FromMicros(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(20));
  EXPECT_EQ(scheduler.pending_count(), 1U);
}

TEST(SchedulerTest, RunUntilAdvancesClockPastLastEvent) {
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(5), [] {});
  scheduler.RunUntil(SimTime::FromMicros(1000));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(1000));
}

TEST(SchedulerTest, RunUntilIncludesDeadlineEvents) {
  Scheduler scheduler;
  bool ran = false;
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { ran = true; });
  scheduler.RunUntil(SimTime::FromMicros(100));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, CountsExecutedEvents) {
  Scheduler scheduler;
  for (int i = 0; i < 7; ++i) {
    scheduler.ScheduleAfter(SimDuration::Micros(i + 1), [] {});
  }
  EXPECT_EQ(scheduler.Run(), 7U);
  EXPECT_EQ(scheduler.events_executed(), 7U);
}

TEST(SchedulerTest, CancelFromWithinAnEvent) {
  Scheduler scheduler;
  bool second_ran = false;
  EventHandle second;
  scheduler.ScheduleAt(SimTime::FromMicros(1),
                       [&] { scheduler.Cancel(second); });
  second = scheduler.ScheduleAt(SimTime::FromMicros(2),
                                [&] { second_ran = true; });
  scheduler.Run();
  EXPECT_FALSE(second_ran);
}

TEST(SchedulerTest, StaleHandleToReusedSlotFailsCancel) {
  // ABA regression: once a handle's slot is freed and reacquired by a later
  // event, the stale handle's generation no longer matches. Cancelling it
  // must fail — and must not kill the slot's new occupant.
  Scheduler scheduler;
  const EventHandle stale =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  ASSERT_TRUE(scheduler.Cancel(stale));  // frees the slot

  // With one slot on the free list, the next schedule reuses it.
  bool reused_ran = false;
  const EventHandle reused =
      scheduler.ScheduleAfter(SimDuration::Millis(1),
                              [&reused_ran] { reused_ran = true; });
  EXPECT_FALSE(scheduler.Cancel(stale));
  scheduler.Run();
  EXPECT_TRUE(reused_ran);
  (void)reused;
}

TEST(SchedulerTest, StaleHandleSurvivesManyReuseGenerations) {
  // Drive one slot through many acquire/release generations; every retired
  // handle must stay dead even as the generation counter climbs.
  Scheduler scheduler;
  std::vector<EventHandle> retired;
  for (int i = 0; i < 64; ++i) {
    const EventHandle handle =
        scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
    ASSERT_TRUE(scheduler.Cancel(handle));
    retired.push_back(handle);
  }
  int executed = 0;
  scheduler.ScheduleAfter(SimDuration::Millis(1), [&executed] { ++executed; });
  for (const EventHandle handle : retired) {
    EXPECT_FALSE(scheduler.Cancel(handle));
  }
  scheduler.Run();
  EXPECT_EQ(executed, 1);
}

TEST(SchedulerTest, RunEndingOnCancelledTimersAcceptsEarlierSchedules) {
  // Run() executes the live event at 100, then drains cancelled timers out
  // to 5000, carrying the wheel clock past now(). Emptying the wheel resets
  // its clock to now(), so a schedule between now() and the last cancelled
  // tick stays legal and runs at its own time.
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(100), [] {});
  const EventHandle a =
      scheduler.ScheduleAt(SimTime::FromMicros(kRotation + 1), [] {});
  const EventHandle b = scheduler.ScheduleAt(SimTime::FromMicros(5000), [] {});
  ASSERT_TRUE(scheduler.Cancel(a));
  ASSERT_TRUE(scheduler.Cancel(b));
  EXPECT_EQ(scheduler.Run(), 1u);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(100));

  SimTime ran_at;
  scheduler.ScheduleAt(SimTime::FromMicros(2000),
                       [&] { ran_at = scheduler.now(); });
  EXPECT_EQ(scheduler.Run(), 1u);
  EXPECT_EQ(ran_at, SimTime::FromMicros(2000));
}

TEST(SchedulerWheelTest, CancelAfterCascadePreventsExecution) {
  // The target is inserted into wheel level 1 (beyond one rotation). The
  // canceller fires inside the same level-1 block, i.e. *after* the block
  // has cascaded down to level 0 — so the cancel marks an entry that
  // already moved buckets. It must still be honored.
  Scheduler scheduler;
  bool target_ran = false;
  bool sentinel_ran = false;
  const EventHandle target = scheduler.ScheduleAt(
      SimTime::FromMicros(kRotation + 452), [&] { target_ran = true; });
  scheduler.ScheduleAt(SimTime::FromMicros(kRotation + 52),
                       [&] { EXPECT_TRUE(scheduler.Cancel(target)); });
  scheduler.ScheduleAt(SimTime::FromMicros(2 * kRotation + 7),
                       [&] { sentinel_ran = true; });
  scheduler.Run();
  EXPECT_FALSE(target_ran);
  EXPECT_TRUE(sentinel_ran);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(2 * kRotation + 7));
}

TEST(SchedulerWheelTest, RearmIntoCurrentBucketFiresSameTick) {
  // A timer that re-arms itself with zero delay — a plain ScheduleAfter
  // from inside its own callback — lands in the level-0 bucket PopNext is
  // currently draining; it must fire in the same simulated instant, after
  // everything scheduled before it.
  Scheduler scheduler;
  std::vector<int> order;
  std::function<void()> fire = [&] {
    order.push_back(1);
    if (order.size() == 1) {
      scheduler.ScheduleAfter(SimDuration::Micros(0), [&] { fire(); });
    }
  };
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { fire(); });
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(2); });
  scheduler.Run();
  // The re-armed firing takes a fresh seq when it is scheduled, so it
  // follows the same-tick event scheduled earlier.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(10));
}

TEST(SchedulerWheelTest, RearmAcrossRotationSurvivesCascade) {
  // The RTO-chain shape: each firing schedules the next one beyond one
  // rotation, so every arming inserts into level 1 and cascades before
  // firing.
  Scheduler scheduler;
  int fired = 0;
  std::function<void()> fire = [&] {
    if (++fired < 5) {
      scheduler.ScheduleAfter(SimDuration::Micros(kRotation + 100),
                              [&] { fire(); });
    }
  };
  scheduler.ScheduleAfter(SimDuration::Micros(kRotation + 100),
                          [&] { fire(); });
  scheduler.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(5 * (kRotation + 100)));
}

TEST(SchedulerWheelTest, FarFutureEventsRunInTimeOrder) {
  // Events hours to months out insert into wheel levels 2 and 3 and
  // cascade down as the clock advances: across the 2^33 us (~2.4 h) level-3
  // boundary, out to the last tick of the range.
  Scheduler scheduler;
  constexpr std::int64_t kLevel3 = std::int64_t{1} << 33;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(kRange - 1),
                       [&] { order.push_back(4); });
  scheduler.ScheduleAt(SimTime::FromMicros(3 * kLevel3 + 5),
                       [&] { order.push_back(3); });
  scheduler.ScheduleAt(SimTime::FromMicros(kLevel3 + 77),
                       [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(12), [&] { order.push_back(1); });
  EXPECT_EQ(scheduler.pending_count(), 4u);
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(kRange - 1));
}

TEST(SchedulerWheelTest, CancelledFarFutureEventNeverRuns) {
  Scheduler scheduler;
  constexpr std::int64_t kLevel3 = std::int64_t{1} << 33;
  bool cancelled_ran = false;
  bool later_ran = false;
  const EventHandle cancelled = scheduler.ScheduleAt(
      SimTime::FromMicros(kLevel3 + 1), [&] { cancelled_ran = true; });
  scheduler.ScheduleAt(SimTime::FromMicros(kLevel3 + 2),
                       [&] { later_ran = true; });
  EXPECT_TRUE(scheduler.Cancel(cancelled));
  scheduler.Run();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(later_ran);
}

TEST(SchedulerWheelTest, AbaAcrossWheelSlotReuse) {
  // Cancelling leaves the wheel node stale in place but frees the action
  // slot; the very next schedule reuses that slot with a bumped generation.
  // At dispatch the stale wheel entry is popped first and must be filtered
  // by the generation probe — not fire the slot's new occupant early or
  // twice.
  Scheduler scheduler;
  int fired = 0;
  const EventHandle stale =
      scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { fired += 100; });
  ASSERT_TRUE(scheduler.Cancel(stale));
  // Same tick, reused slot: the stale entry and the live one collide in the
  // same level-0 bucket.
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { fired += 1; });
  EXPECT_FALSE(scheduler.Cancel(stale));
  scheduler.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerWheelTest, RunUntilMidRotationThenResume) {
  // RunUntil leaves the wheel clock at or before its deadline, so an event
  // scheduled afterwards behind the next pending tick still dispatches in
  // time order.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(300), [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(kRotation + 9),
                       [&] { order.push_back(3); });
  scheduler.RunUntil(SimTime::FromMicros(200));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(200));
  scheduler.ScheduleAt(SimTime::FromMicros(250), [&] { order.push_back(4); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
}

TEST(SchedulerDeathTest, SchedulingInThePastAborts) {
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [] {});
  scheduler.Run();
  EXPECT_DEATH(scheduler.ScheduleAt(SimTime::FromMicros(5), [] {}),
               "scheduling into the past");
}

TEST(SchedulerDeathTest, SchedulingPastTheRangeAborts) {
  Scheduler scheduler;
  EXPECT_DEATH(scheduler.ScheduleAt(SimTime::FromMicros(kRange), [] {}),
               "past the scheduler's range");
}

}  // namespace
}  // namespace dcrd
