#include "event/scheduler.h"

#include <cstdint>

namespace dcrd {

EventHandle Scheduler::RearmCurrentAt(SimTime at) {
  DCRD_CHECK(in_dispatch_) << "RearmCurrent outside an event callback";
  DCRD_CHECK(!rearmed_) << "event re-armed twice in one dispatch";
  DCRD_CHECK(at >= now_) << "re-arming into the past: " << at << " < " << now_;
  rearmed_ = true;
  ++live_;
  Enqueue(at, PackK1(now_.micros(), kEngineOrigin), next_seq_++,
          running_slot_);
  return EventHandle(running_slot_);
}

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
  // callback, and RearmCurrentAt can relink the very same slot. The action
  // runs in place — chunked slab storage never relocates.
  Action* action = actions_.BeginDispatch(slot, &running_slot_);
  in_dispatch_ = true;
  rearmed_ = false;
  now_ = at;
  ++events_executed_;
  DCRD_CHECK(live_ > 0);
  --live_;
  (*action)();
  in_dispatch_ = false;
  if (!rearmed_) {
    // Drop the capture (it may own resources); the slab slot is recycled.
    *action = nullptr;
    actions_.ReleaseLive(running_slot_);
  }
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

std::uint64_t Scheduler::RunBefore(SimTime horizon) {
  internal::ScopedSimClock clock_guard(&now_);
  return Drain(horizon.micros(), UINT64_MAX);
}

SimTime Scheduler::NextEventTime() const {
  std::int64_t at = 0;
  return wheel_.PeekNextAt(&at) ? SimTime::FromMicros(at) : SimTime::Max();
}

}  // namespace dcrd
