// Randomized differential test: the Scheduler against a naive reference
// implementation (flat vector, linear scans). Any divergence in execution
// order, clock values, or cancellation results is a bug in the production
// scheduler.
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "event/scheduler.h"

namespace dcrd {
namespace {

// Reference model: O(n) everything, obviously correct.
class ReferenceScheduler {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  std::uint64_t ScheduleAt(SimTime at, int payload) {
    entries_.push_back(Entry{at, next_seq_, payload, false});
    return next_seq_++;
  }
  bool Cancel(std::uint64_t seq) {
    for (Entry& entry : entries_) {
      if (entry.seq == seq && !entry.cancelled && !entry.executed) {
        entry.cancelled = true;
        return true;
      }
    }
    return false;
  }
  // Executes every event at or before `deadline` in (at, seq) order,
  // appending payloads to `order`; the clock ends at the deadline.
  void RunUntil(SimTime deadline, std::vector<int>* order) {
    while (true) {
      Entry* best = nullptr;
      for (Entry& entry : entries_) {
        if (entry.cancelled || entry.executed || entry.at > deadline) continue;
        if (best == nullptr || entry.at < best->at ||
            (entry.at == best->at && entry.seq < best->seq)) {
          best = &entry;
        }
      }
      if (best == nullptr) break;
      best->executed = true;
      now_ = best->at;
      order->push_back(best->payload);
    }
    if (deadline != SimTime::Max() && now_ < deadline) now_ = deadline;
  }
  void Run(std::vector<int>* order) { RunUntil(SimTime::Max(), order); }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    int payload;
    bool cancelled = false;
    bool executed = false;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = SimTime::Zero();
};

// A delay whose bit length is uniform in [0, 36], so same-tick collisions
// and inserts into every wheel level (boundaries 2^11, 2^22, 2^33 us) and
// their cascades all occur.
SimDuration SpreadDelay(Rng& rng) {
  const std::int64_t bits = rng.NextInRange(0, 36);
  return SimDuration::Micros(
      rng.NextInRange(0, (std::int64_t{1} << bits) - 1));
}

class SchedulerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzzTest, MatchesReferenceModel) {
  // Schedules and cancels interleaved with RunUntil stops; each batch of
  // schedules is made at the clock the previous stop left behind.
  Rng rng(GetParam());
  Scheduler scheduler;
  ReferenceScheduler reference;

  std::vector<int> production_order;
  std::vector<int> reference_order;
  std::vector<EventHandle> handles;
  std::vector<std::uint64_t> reference_handles;

  const int operations = 400;
  for (int op = 0; op < operations; ++op) {
    const double roll = rng.NextDouble();
    if (!handles.empty() && roll < 0.3) {
      // Cancel a random prior event; results must agree.
      const std::size_t pick = rng.NextBounded(handles.size());
      EXPECT_EQ(scheduler.Cancel(handles[pick]),
                reference.Cancel(reference_handles[pick]));
    } else if (roll < 0.4) {
      const SimTime deadline = scheduler.now() + SpreadDelay(rng);
      scheduler.RunUntil(deadline);
      reference.RunUntil(deadline, &reference_order);
      ASSERT_EQ(production_order, reference_order) << "after op " << op;
      EXPECT_EQ(scheduler.now(), reference.now());
    } else {
      const int payload = op;
      const SimTime at = scheduler.now() + SpreadDelay(rng);
      handles.push_back(scheduler.ScheduleAt(
          at, [payload, &production_order] {
            production_order.push_back(payload);
          }));
      reference_handles.push_back(reference.ScheduleAt(at, payload));
    }
  }

  scheduler.Run();
  reference.Run(&reference_order);

  EXPECT_EQ(production_order, reference_order);
  EXPECT_EQ(scheduler.now(), reference.now());
  EXPECT_TRUE(scheduler.empty());
}

TEST_P(SchedulerFuzzTest, InterleavedRunAndScheduleMatches) {
  // Events scheduled from within events, plus cancellations of not-yet-run
  // events from within events.
  Rng rng(GetParam() + 1000);
  Scheduler scheduler;
  std::vector<int> order;
  int spawned = 0;

  std::function<void(int)> spawn = [&](int depth) {
    order.push_back(depth);
    if (depth < 3 && spawned < 500) {
      const int children = static_cast<int>(rng.NextInRange(0, 3));
      for (int c = 0; c < children; ++c) {
        ++spawned;
        scheduler.ScheduleAfter(
            SimDuration::Micros(rng.NextInRange(1, 50)),
            [&spawn, depth] { spawn(depth + 1); });
      }
    }
  };
  for (int i = 0; i < 10; ++i) {
    ++spawned;
    scheduler.ScheduleAfter(SimDuration::Micros(rng.NextInRange(1, 50)),
                            [&spawn] { spawn(0); });
  }
  scheduler.Run();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(spawned));
  EXPECT_TRUE(scheduler.empty());
  // The clock never runs backwards and ends at the last event.
  EXPECT_GE(scheduler.now(), SimTime::Zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dcrd
