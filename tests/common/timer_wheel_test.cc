#include "common/timer_wheel.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

using Wheel = TimerWheel<int>;

// Drains the wheel, returning (at, k2) in pop order (tests that only need a
// tie-breaker leave k1 = 0 and use k2 like the old sequence number).
std::vector<std::pair<std::int64_t, std::uint64_t>> Drain(Wheel& wheel) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  Wheel::Entry entry;
  while (wheel.PopNext(&entry)) out.emplace_back(entry.at, entry.k2);
  return out;
}

TEST(TimerWheelTest, StartsEmptyAtTickZero) {
  Wheel wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.current(), 0);
  Wheel::Entry entry;
  EXPECT_FALSE(wheel.PopNext(&entry));
}

TEST(TimerWheelTest, PopsInTickThenKeyOrder) {
  Wheel wheel;
  // Shuffled ticks spanning all four levels: level 0 (< 2^11), level 1
  // (< 2^22), level 2 (< 2^33), level 3 (< 2^44).
  const std::int64_t ticks[] = {7,         5'000'000,    3000,
                                1,         40'000'000'0, 2047,
                                2048,      4'194'304,    Wheel::kHorizon - 1,
                                std::int64_t{1} << 33};
  std::uint64_t seq = 1;
  for (const std::int64_t at : ticks) wheel.Insert(at, 0, seq++, 0);

  const auto popped = Drain(wheel);
  ASSERT_EQ(popped.size(), std::size(ticks));
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, SameTickYieldsKeyOrder) {
  Wheel wheel;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    wheel.Insert(500, 0, seq, 0);
  }
  const auto popped = Drain(wheel);
  ASSERT_EQ(popped.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(popped[i], (std::pair<std::int64_t, std::uint64_t>{500, i + 1}));
  }
}

TEST(TimerWheelTest, SameTickOutOfOrderInsertsSortAtDetach) {
  // A cross-shard injection appends with a key smaller than entries already
  // linked in the bucket; the detach-time sort must restore (k1, k2) order.
  Wheel wheel;
  wheel.Insert(500, 7, 1, 10);
  wheel.Insert(500, 3, 2, 20);  // smaller k1, inserted later
  wheel.Insert(500, 3, 1, 30);  // same k1, smaller k2, inserted last
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.payload, 30);
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.payload, 20);
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.payload, 10);
  EXPECT_FALSE(wheel.PopNext(&entry));
}

TEST(TimerWheelTest, CascadePreservesOrderWithinBlock) {
  Wheel wheel;
  // All in level 1's first rotation block [2048, 4096): they cascade down
  // together when the clock enters the block, and must still pop by tick.
  wheel.Insert(4000, 0, 1, 0);
  wheel.Insert(2100, 0, 2, 0);
  wheel.Insert(3000, 0, 3, 0);
  wheel.Insert(2100, 0, 4, 0);  // same tick as k2=2: keyed after it
  const auto popped = Drain(wheel);
  const std::vector<std::pair<std::int64_t, std::uint64_t>> want = {
      {2100, 2}, {2100, 4}, {3000, 3}, {4000, 1}};
  EXPECT_EQ(popped, want);
}

TEST(TimerWheelTest, RejectsTicksBeyondHorizon) {
  // The range is absolute: the last tick is legal wherever the clock is,
  // one past it aborts.
  Wheel wheel;
  wheel.Insert(Wheel::kHorizon - 1, 0, 1, 0);
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_DEATH(wheel.Insert(Wheel::kHorizon, 0, 2, 0),
               "outside wheel range");
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.at, Wheel::kHorizon - 1);
}

TEST(TimerWheelTest, RejectsTicksBehindTheClock) {
  Wheel wheel;
  wheel.Insert(100, 0, 1, 0);
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(wheel.current(), 100);
  EXPECT_DEATH(wheel.Insert(99, 0, 2, 0), "outside wheel range");
  wheel.Insert(100, 0, 2, 0);  // the current tick stays legal
  EXPECT_EQ(wheel.size(), 1u);
}

TEST(TimerWheelTest, ResetClockRewindsAnEmptyWheel) {
  // Stale entries drained the clock to 5000; resetting to 300 makes ticks
  // in [300, 5000) insertable again and forgets the last yielded key, so
  // the strict-order check accepts them.
  Wheel wheel;
  wheel.Insert(300, 0, 9, 0);
  wheel.Insert(5000, 0, 10, 0);
  Wheel::Entry entry;
  while (wheel.PopNext(&entry)) {
  }
  EXPECT_EQ(wheel.current(), 5000);
  wheel.ResetClock(300);
  EXPECT_EQ(wheel.current(), 300);
  wheel.Insert(300, 0, 1, 42);
  wheel.Insert(2000, 0, 2, 43);
  EXPECT_EQ(Drain(wheel),
            (std::vector<std::pair<std::int64_t, std::uint64_t>>{{300, 1},
                                                                 {2000, 2}}));
}

TEST(TimerWheelTest, SameTickReinsertDuringDrainYieldsAfterDetachedRun) {
  // The re-arm idiom: while PopNext is yielding tick T's bucket, the caller
  // re-inserts at T with a fresh (larger) key. The new entry must come out
  // after the already-detached run — exactly its key order.
  Wheel wheel;
  wheel.Insert(50, 0, 1, 1);
  wheel.Insert(50, 0, 2, 2);
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.k2, 1u);
  wheel.Insert(50, 0, 3, 3);  // same tick, mid-drain
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.k2, 2u);
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.k2, 3u);
  EXPECT_FALSE(wheel.PopNext(&entry));
}

TEST(TimerWheelTest, PopNextBeforeStopsShortOfTheLimit) {
  Wheel wheel;
  wheel.Insert(10, 0, 1, 1);
  wheel.Insert(20, 0, 2, 2);
  wheel.Insert(30, 0, 3, 3);
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNextBefore(30, &entry));
  EXPECT_EQ(entry.at, 10);
  ASSERT_TRUE(wheel.PopNextBefore(30, &entry));
  EXPECT_EQ(entry.at, 20);
  // Tick 30 is at the limit: refused, clock unmoved past 20.
  EXPECT_FALSE(wheel.PopNextBefore(30, &entry));
  EXPECT_EQ(wheel.current(), 20);
  EXPECT_EQ(wheel.size(), 1u);
  // An injection below the refused tick must still be insertable and pop
  // first once the limit lifts.
  wheel.Insert(25, 0, 4, 4);
  ASSERT_TRUE(wheel.PopNextBefore(100, &entry));
  EXPECT_EQ(entry.at, 25);
  ASSERT_TRUE(wheel.PopNextBefore(100, &entry));
  EXPECT_EQ(entry.at, 30);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, PopNextBeforeRefusesCascadePastTheLimit) {
  // The only pending entry lives in a level-1 block starting beyond the
  // limit: the cascade must not run, leaving the block intact for later
  // same-block injections.
  Wheel wheel;
  wheel.Insert(5000, 0, 1, 1);  // level-1 block [4096, 6144)
  Wheel::Entry entry;
  EXPECT_FALSE(wheel.PopNextBefore(3000, &entry));
  EXPECT_EQ(wheel.current(), 0);  // clock unmoved
  wheel.Insert(4500, 0, 2, 2);
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.at, 4500);
  ASSERT_TRUE(wheel.PopNext(&entry));
  EXPECT_EQ(entry.at, 5000);
}

TEST(TimerWheelTest, PeekNextAtDoesNotAdvanceTheClock) {
  Wheel wheel;
  std::int64_t at = 0;
  EXPECT_FALSE(wheel.PeekNextAt(&at));
  wheel.Insert(5000, 0, 1, 1);  // level 1
  ASSERT_TRUE(wheel.PeekNextAt(&at));
  EXPECT_EQ(at, 5000);
  EXPECT_EQ(wheel.current(), 0);  // no cascade, no clock movement
  wheel.Insert(70, 0, 2, 2);  // level 0: becomes the minimum
  ASSERT_TRUE(wheel.PeekNextAt(&at));
  EXPECT_EQ(at, 70);
  // Peek mid-drain sees the detached cursor's head.
  Wheel::Entry entry;
  ASSERT_TRUE(wheel.PopNext(&entry));
  wheel.Insert(70, 0, 3, 3);
  ASSERT_TRUE(wheel.PeekNextAt(&at));
  EXPECT_EQ(at, 70);
}

TEST(TimerWheelTest, PoolRecyclesNodesAcrossGenerations) {
  // Steady-state churn far beyond one slab's 1024 nodes: the free list must
  // recycle, keeping the population bounded by the high-water mark.
  Wheel wheel;
  std::uint64_t seq = 1;
  std::int64_t at = 1;
  for (int round = 0; round < 5000; ++round) {
    wheel.Insert(at, 0, seq++, 0);
    Wheel::Entry entry;
    ASSERT_TRUE(wheel.PopNext(&entry));
    EXPECT_EQ(entry.at, at);
    ++at;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelDeathTest, InsertOutsideHorizonAborts) {
  Wheel wheel;
  EXPECT_DEATH(wheel.Insert(INT64_MAX, 0, 1, 0), "outside wheel range");
  EXPECT_DEATH(wheel.Insert(-1, 0, 1, 0), "outside wheel range");
}

TEST(TimerWheelDeathTest, ResetClockOverPendingEntriesAborts) {
  Wheel wheel;
  wheel.Insert(10, 0, 1, 0);
  EXPECT_DEATH(wheel.ResetClock(0), "ResetClock over");
}

}  // namespace
}  // namespace dcrd
