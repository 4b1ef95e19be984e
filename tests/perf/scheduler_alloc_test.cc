// Regression tests for the scheduler's zero-steady-state-allocation
// property. The slot-map slab and the wheel's node pool grow while the event
// population climbs to its high-water mark (warm-up); after that, every
// ScheduleAt/Cancel/Step cycle must run without touching the heap
// allocator. A single allocation here is a lost property, not a slowdown —
// fail loudly.
#include <gtest/gtest.h>

#include "event/scheduler.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

TEST(SchedulerAllocTest, ScheduleRunCycleIsAllocationFreeAfterWarmup) {
  Scheduler scheduler;
  std::uint64_t fired = 0;
  // Warm-up: grow the wheel pool and the action slab to 256 concurrent
  // events, then drain.
  for (int i = 0; i < 256; ++i) {
    scheduler.ScheduleAfter(SimDuration::Micros(i + 1), [&fired] { ++fired; });
  }
  scheduler.Run();

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      scheduler.ScheduleAfter(SimDuration::Micros(i + 1),
                              [&fired] { ++fired; });
    }
    scheduler.Run();
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "schedule/run cycle allocated " << delta.bytes << " bytes";
  EXPECT_EQ(fired, 256u * 101u);
}

TEST(SchedulerAllocTest, ScheduleCancelCycleIsAllocationFreeAfterWarmup) {
  // The ACK-timer pattern: nearly every timer is cancelled before firing.
  Scheduler scheduler;
  std::vector<EventHandle> handles;
  handles.reserve(512);
  for (int i = 0; i < 512; ++i) {
    handles.push_back(scheduler.ScheduleAfter(SimDuration::Millis(60), [] {}));
  }
  for (EventHandle handle : handles) scheduler.Cancel(handle);
  scheduler.Run();

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    handles.clear();
    for (int i = 0; i < 512; ++i) {
      handles.push_back(
          scheduler.ScheduleAfter(SimDuration::Millis(60), [] {}));
    }
    for (EventHandle handle : handles) scheduler.Cancel(handle);
    scheduler.Run();
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "schedule/cancel cycle allocated " << delta.bytes << " bytes";
}

TEST(SchedulerAllocTest, WheelSteadyStateWithCascadesIsAllocationFree) {
  // Delays spread across wheel levels 0-2: every round exercises
  // level-1/2 inserts and the cascades that bring them down. Cascading
  // relinks pooled nodes — it must never touch the allocator.
  Scheduler scheduler;
  std::uint64_t fired = 0;
  const auto schedule_spread = [&] {
    for (int i = 0; i < 256; ++i) {
      const std::int64_t delay = 1 + (static_cast<std::int64_t>(i) * 131) %
                                         5'000'000;  // up to level 2
      scheduler.ScheduleAfter(SimDuration::Micros(delay),
                              [&fired] { ++fired; });
    }
  };
  schedule_spread();
  scheduler.Run();

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    schedule_spread();
    scheduler.Run();
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "cascading schedule/run cycle allocated " << delta.bytes << " bytes";
  EXPECT_EQ(fired, 256u * 101u);
}

// A timer that re-arms itself by scheduling its next firing from inside its
// own callback, `limit` firings in all: the HopTransport retransmit and
// probe chains.
struct SelfRearmingTimer {
  Scheduler& scheduler;
  int limit;
  int fired = 0;
  void Fire() {
    if (++fired < limit) {
      scheduler.ScheduleAfter(SimDuration::Micros(3000), [this] { Fire(); });
    }
  }
};

TEST(SchedulerAllocTest, RearmChainIsAllocationFreeAfterWarmup) {
  // Each firing schedules its successor while its own slot is still
  // running; the slab recycles both slots and the wheel recycles its
  // nodes, so a periodic timer never allocates once warm.
  Scheduler scheduler;
  SelfRearmingTimer warmup{scheduler, 3};
  scheduler.ScheduleAfter(SimDuration::Micros(100), [&] { warmup.Fire(); });
  scheduler.Run();  // warm-up: slab slots + wheel nodes exist now
  ASSERT_EQ(warmup.fired, 3);

  AllocProbe probe;
  SelfRearmingTimer timer{scheduler, 1000};
  scheduler.ScheduleAfter(SimDuration::Micros(100), [&] { timer.Fire(); });
  scheduler.Run();
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "re-arm chain allocated " << delta.bytes << " bytes";
  EXPECT_EQ(timer.fired, 1000);
}

TEST(SchedulerAllocTest, CaptureAtInlineBudgetStaysInline) {
  // A capture of exactly the inline capacity must not fall back to the
  // heap (there is no fallback — this guards the budget constant itself).
  struct Fat {
    std::uint64_t a, b, c, d, e;  // 40 bytes; +8 for the sink pointer = 48
  };
  static_assert(sizeof(Fat) == 40);
  Scheduler scheduler;
  scheduler.ScheduleAfter(SimDuration::Micros(1), [] {});  // warm one slot
  scheduler.Run();

  AllocProbe probe;
  Fat fat{1, 2, 3, 4, 5};
  std::uint64_t sink = 0;
  scheduler.ScheduleAfter(SimDuration::Micros(1),
                          [fat, &sink] { sink = fat.a + fat.e; });
  scheduler.Run();
  EXPECT_EQ(probe.delta().allocations, 0u);
  EXPECT_EQ(sink, 6u);
}

}  // namespace
}  // namespace dcrd
