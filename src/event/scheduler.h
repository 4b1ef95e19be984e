// Deterministic discrete-event scheduler.
//
// The scheduler owns the simulated clock and the pending-event queue.
// Events firing at the same instant are delivered in ascending canonical
// key order. The key (k1, k2) is a pure function of the event's content:
//   k1 = (scheduling-time micros << 20) | origin
//   k2 = a per-origin monotone counter
// where `origin` identifies the entity that created the event (a broker id
// for network arrivals; kEngineOrigin — the maximal value, sorting last —
// for everything scheduled through the plain ScheduleAt/ScheduleAfter
// path). Events created at the same tick by the same origin therefore keep
// their scheduling order, and the tie order among same-instant events from
// different origins is fixed by content rather than by insertion order.
// The network keys an arrival by its sender and the ACK of a data copy by
// the copy's landing instant (see net/overlay_network.h), so ties resolve
// as if the receiver had emitted each ACK when the copy arrived. The keys
// thereby fix the sample path every figure was recorded on; a plain
// insertion counter would reorder same-instant ties and change results.
//
// Queue: one four-level hierarchical timer wheel (common/timer_wheel.h)
// over every time the canonical key can encode, [0, 2^44) us (~203
// simulated days): O(1) insert, O(1) cancel, and dispatch that walks
// same-tick bucket lists in place instead of paying an O(log n) heap pop
// per event. Run, RunUntil and Step are one drain loop over the wheel, kept
// sound by two invariants. A partial drain is bounded by a limit (RunUntil:
// deadline + 1 us), so the wheel clock never passes a time the caller may
// schedule at next. And a drain that empties the wheel resets its clock to
// now(): trailing cancelled entries may have carried it further.
//
// Actions live in a generation-checked slot map — a dense slab recycled
// through a free list — and are InlineAction callbacks with fixed inline
// capture storage, so ScheduleAt/Cancel/Step perform zero heap allocations
// once the slab and wheel pool have grown to the simulation's high-water
// mark. An EventHandle is {slot, generation}: cancelling is two array
// reads and a compare, and a stale handle (the event already ran, was
// cancelled, or its slot now belongs to a newer event) is rejected by the
// generation mismatch — no hash lookup anywhere. Cancelled entries go
// stale in their wheel bucket and are skipped at dispatch.
//
// Re-arm path: a periodic-style timer — the RTO retransmit chain, the
// peer-death probe loop — may call RearmCurrentAfter/At from inside its own
// callback. The action is left in place in the slab (no move, no
// release/acquire round trip); its slot's generation is bumped so every
// older handle goes stale, and a fresh queue entry is linked. This is the
// wheel idiom HopTransport's per-pending timer bookkeeping rides on.
#pragma once

#include <cstdint>
#include <utility>

#include "common/inline_function.h"
#include "common/logging.h"
#include "common/sim_time.h"
#include "common/slot_map.h"
#include "common/timer_wheel.h"

namespace dcrd {

// Handle for a scheduled event; used to cancel pending timers. Default
// constructed handles refer to nothing and are safe to cancel.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return handle_.valid(); }

 private:
  friend class Scheduler;
  explicit EventHandle(SlotHandle handle) : handle_(handle) {}
  SlotHandle handle_;
};

class Scheduler {
 public:
  // Non-allocating callback: captures beyond the inline budget are compile
  // errors, keeping the event loop heap-free (see inline_function.h).
  using Action = InlineFunction<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Origin field of k1 for events created through the plain ScheduleAt
  // path: the maximal 20-bit value, so same-instant engine housekeeping
  // sorts after every keyed network arrival of the same scheduling tick.
  static constexpr std::uint64_t kEngineOrigin = (1u << 20) - 1;

  // Packs the canonical-key major word. 44 bits of scheduling-time micros
  // (runs past ~278 simulated years would overflow — checked), 20 bits of
  // origin id.
  static std::uint64_t PackK1(std::int64_t sched_micros,
                              std::uint64_t origin) {
    DCRD_CHECK(sched_micros >= 0 &&
               sched_micros < (std::int64_t{1} << 43))
        << "scheduling time overflows the canonical key: " << sched_micros;
    DCRD_CHECK(origin <= kEngineOrigin) << "origin overflows 20 bits";
    return (static_cast<std::uint64_t>(sched_micros) << 20) | origin;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending_count() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  // Schedules `action` to run at absolute time `at` (must not be in the
  // past) under an explicit canonical key (see the header comment); the
  // network layer computes keys from event content. Keys must be unique
  // per (at, k1, k2) — dispatch enforces strict order.
  // Templated so the callable is constructed directly in its slab slot
  // (InlineFunction::Assign) instead of riding through a temporary Action's
  // relocate.
  template <typename F>
  EventHandle ScheduleKeyed(SimTime at, std::uint64_t k1, std::uint64_t k2,
                            F&& action) {
    DCRD_CHECK(at >= now_) << "scheduling into the past: " << at << " < "
                           << now_;
    Action* value;
    const SlotHandle slot = actions_.Acquire(&value);
    value->Assign(std::forward<F>(action));
    ++live_;
    Enqueue(at, k1, k2, slot);
    return EventHandle(slot);
  }

  // Schedules `action` to run at absolute time `at` (must not be in the
  // past). Returns a handle usable with Cancel(). Key: engine origin at the
  // current scheduling time, tie-broken by this scheduler's own counter —
  // locally created events keep their scheduling order.
  template <typename F>
  EventHandle ScheduleAt(SimTime at, F&& action) {
    return ScheduleKeyed(at, PackK1(now_.micros(), kEngineOrigin),
                         next_seq_++, std::forward<F>(action));
  }

  // Schedules `action` to run `delay` after the current time.
  template <typename F>
  EventHandle ScheduleAfter(SimDuration delay, F&& action) {
    return ScheduleAt(now_ + delay, std::forward<F>(action));
  }

  // Re-arms the currently executing event's action without touching it:
  // only legal from inside an event callback, at most once per dispatch.
  // The action stays in its slab slot (the handle returned by the original
  // ScheduleAt is already stale — the event fired); the returned handle
  // cancels or re-arms the new arming. Equivalent to ScheduleAt(at, <same
  // action>) for ordering purposes: the new entry takes the next sequence
  // number at the point of the call.
  EventHandle RearmCurrentAt(SimTime at);
  EventHandle RearmCurrentAfter(SimDuration delay) {
    return RearmCurrentAt(now_ + delay);
  }

  // Cancels a pending event. Returns true if the event was still pending;
  // false if it already ran, was already cancelled, or the handle is empty.
  bool Cancel(EventHandle handle);

  // Runs events until the queue drains. Returns the number executed.
  std::uint64_t Run();

  // Runs events with timestamp <= deadline; the clock ends at `deadline`
  // even if the queue drained earlier (so periodic processes observe a
  // consistent end-of-simulation time). Returns the number executed.
  std::uint64_t RunUntil(SimTime deadline);

  // Executes at most one event. Returns false if the queue is empty.
  bool Step();

 private:
  using Wheel = TimerWheel<SlotHandle>;

  // Links one pending entry into the wheel. Inline: this sits inside every
  // ScheduleAt/ScheduleKeyed instantiation.
  void Enqueue(SimTime at, std::uint64_t k1, std::uint64_t k2,
               SlotHandle slot) {
    DCRD_CHECK(at.micros() < Wheel::kHorizon)
        << "event at " << at
        << " is past the scheduler's range of 2^44 us (~203 days)";
    wheel_.Insert(at.micros(), k1, k2, slot);
  }

  // The one dispatch loop: executes up to `budget` live events strictly
  // before `limit` in (at, k1, k2) order, skipping cancelled entries, then
  // resets the clock of a wheel it emptied to now(). Returns the number
  // executed.
  std::uint64_t Drain(std::int64_t limit, std::uint64_t budget);

  // Runs one popped live entry: advances the clock, renews the slot so
  // outstanding handles go stale, invokes the action in place, and
  // releases the slot unless the action re-armed itself.
  void Execute(SimTime at, SlotHandle slot);

  SimTime now_ = SimTime::Zero();
  std::uint64_t next_seq_ = 1;  // k2 counter for the engine origin
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;  // pending (scheduled, not run/cancelled)

  Wheel wheel_;

  // Action storage. A slot goes back on the free list the moment its event
  // runs or is cancelled (unless re-armed); the generation bump makes
  // outstanding EventHandles to it stale.
  SlotMap<Action> actions_;

  // Dispatch state for RearmCurrentAt: the renewed handle of the running
  // event's slot, and whether the callback re-armed it.
  SlotHandle running_slot_;
  bool in_dispatch_ = false;
  bool rearmed_ = false;
};

}  // namespace dcrd
