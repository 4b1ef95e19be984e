#include "event/scheduler.h"

#include <cstdint>

namespace dcrd {

bool Scheduler::Cancel(EventHandle handle) {
  Action* action = actions_.Get(handle.handle_);
  if (action == nullptr) return false;  // ran, already cancelled, or empty
  // Drop the capture now (it may own resources); the slab slot is recycled.
  // The wheel entry goes stale in place and is skipped at dispatch.
  *action = nullptr;
  actions_.ReleaseLive(handle.handle_);
  DCRD_CHECK(live_ > 0);
  --live_;
  return true;
}

void Scheduler::Execute(SimTime at, SlotHandle slot) {
  DCRD_CHECK(at >= now_);
  // Renew before running: every outstanding handle (including the event's
  // own) goes stale, so a re-entrant Cancel cannot destroy the executing
  // callback. The action runs in place — chunked slab storage never
  // relocates.
  SlotHandle running;
  Action* action = actions_.BeginDispatch(slot, &running);
  now_ = at;
  ++events_executed_;
  DCRD_CHECK(live_ > 0);
  --live_;
  (*action)();
  // Drop the capture (it may own resources); the slab slot is recycled.
  *action = nullptr;
  actions_.ReleaseLive(running);
}

std::uint64_t Scheduler::Drain(std::int64_t limit, std::uint64_t budget) {
  std::uint64_t count = 0;
  Wheel::Entry e;
  while (count < budget && wheel_.PopNextBefore(limit, &e)) {
    // Warm the action's cache lines under the wheel bookkeeping; the
    // staleness probe (cancelled entries go stale in place) then hits warm
    // metadata.
    actions_.Prefetch(e.payload);
    if (actions_.Get(e.payload) == nullptr) continue;  // cancelled
    Execute(SimTime::FromMicros(e.at), e.payload);
    ++count;
  }
  // Trailing cancelled entries may have carried the wheel clock past now_;
  // an empty wheel hands that gap back so the next ScheduleAt at >= now_
  // is insertable.
  if (wheel_.empty()) wheel_.ResetClock(now_.micros());
  return count;
}

bool Scheduler::Step() { return Drain(INT64_MAX, 1) == 1; }

std::uint64_t Scheduler::Run() {
  // Expose the clock to DCRD_LOG for the whole run, not per Step — a
  // thread-local store per event would show up in the event-queue bench.
  internal::ScopedSimClock clock_guard(&now_);
  return Drain(INT64_MAX, UINT64_MAX);
}

std::uint64_t Scheduler::RunUntil(SimTime deadline) {
  internal::ScopedSimClock clock_guard(&now_);
  // Limit deadline + 1: the wheel clock never passes the deadline, so
  // anything scheduled at >= deadline afterwards still lands ahead of it.
  const std::int64_t at = deadline.micros();
  const std::uint64_t count =
      Drain(at == INT64_MAX ? INT64_MAX : at + 1, UINT64_MAX);
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace dcrd
