// Broker crash–recover lifecycle (fail-stop model).
//
// A broker alternates between being up (serving traffic, holding volatile
// state) and crashed (silent: every in-flight or queued packet addressed to
// it is dropped, every timer it owned is void). When it restarts it comes
// back with *empty volatile state* — dedup tables, open episodes, gossip
// caches are gone — and must resynchronize from its neighbors before its
// routing state is trustworthy again.
//
// The schedule is parameterized the way operators think about it — MTBF
// (mean time between failures) and MTTR (mean time to repair) — and mapped
// onto the same counter-based `internal::OutageProcess` the link and gray
// schedules use:
//
//   stationary down fraction = MTTR / (MTBF + MTTR)
//   outage length            = ceil(MTTR / epoch) epochs
//
// so up/down at time t is a pure hash of (seed, broker, epoch): queries
// need no state, work at any horizon (the invariant checker asks about the
// past, the ORACLE about the future), and every router under the same seed
// faces the identical crash sample path. MTBF zero (the default)
// disables the process entirely — no draws, no branches downstream.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/logging.h"
#include "common/sim_time.h"
#include "net/failure_schedule.h"

namespace dcrd {

class BrokerCrashSchedule {
 public:
  // Disabled schedule: every broker is up forever.
  BrokerCrashSchedule()
      : BrokerCrashSchedule(0, SimDuration::Zero(), SimDuration::Zero()) {}

  BrokerCrashSchedule(std::uint64_t seed, SimDuration mtbf, SimDuration mttr,
                      SimDuration epoch = SimDuration::Seconds(1))
      : process_(seed, epoch, OutageEpochsFor(mttr, epoch)),
        mtbf_(mtbf),
        mttr_(mttr),
        down_fraction_(mtbf > SimDuration::Zero()
                           ? static_cast<double>(mttr.micros()) /
                                 static_cast<double>(mtbf.micros() +
                                                     mttr.micros())
                           : 0.0),
        start_(process_.StartProbabilityFor(down_fraction_)) {
    DCRD_CHECK(mtbf >= SimDuration::Zero());
    DCRD_CHECK(mttr >= SimDuration::Zero());
  }

  [[nodiscard]] bool enabled() const { return down_fraction_ > 0.0; }

  // True when `node` is up (not crashed) at time t.
  [[nodiscard]] bool Up(NodeId node, SimTime t) const {
    return process_.IsUp(node.underlying(), t, start_);
  }

  // True when `node` is up at every instant of [t0, t1].
  [[nodiscard]] bool UpThroughout(NodeId node, SimTime t0, SimTime t1) const {
    if (!enabled()) return true;
    return HoldsThroughout(process_.epoch(), t0, t1,
                           [&](SimTime t) { return Up(node, t); });
  }

  // True when `node` was crashed at some instant of [t0, t1] — the window
  // contains (part of) a down period. A duplicate hand-up at a broker is
  // legal exactly when this holds between the two hand-ups: the dedup entry
  // died with the crash.
  [[nodiscard]] bool DownDuring(NodeId node, SimTime t0, SimTime t1) const {
    return !UpThroughout(node, t0, t1);
  }

  [[nodiscard]] SimDuration epoch() const { return process_.epoch(); }
  [[nodiscard]] SimDuration mtbf() const { return mtbf_; }
  [[nodiscard]] SimDuration mttr() const { return mttr_; }
  [[nodiscard]] double down_fraction() const { return down_fraction_; }

 private:
  static int OutageEpochsFor(SimDuration mttr, SimDuration epoch) {
    if (mttr <= SimDuration::Zero()) return 1;
    const std::int64_t epochs =
        (mttr.micros() + epoch.micros() - 1) / epoch.micros();
    return static_cast<int>(epochs < 1 ? 1 : epochs);
  }

  internal::OutageProcess process_;
  SimDuration mtbf_;
  SimDuration mttr_;
  double down_fraction_;
  double start_;
};

}  // namespace dcrd
