// Simulation-wide invariant checking.
//
// The figure harnesses measure *how well* each protocol performs; nothing
// before this module checked that a run was *correct*. The checker hooks
// three places — the hop transport (every copy arrival), the delivery sink
// (every hand-up to a subscriber), and the engine's epoch/end-of-run hooks —
// and verifies:
//
//  1. Routing-loop freedom: a copy arriving at a node already on its
//     routing path must be a legal upstream reroute (the receiver is the
//     sender's original upstream, Algorithm 2 lines 10-12); anything else
//     is a forwarding loop.
//  2. Exactly-once hand-up per copy id, across the *whole run* — the
//     transport's own dedup set is cleared at monitoring epochs to bound
//     memory, so a straggler duplicate crossing an epoch boundary would
//     slip through it; the checker keeps the full set and would catch that.
//     Crash-aware: a broker restart legitimately loses the receiver's dedup
//     window, so a repeat hand-up at a node is *excused* iff that node was
//     down at some point between the two hand-ups (counted in
//     crash_excused_duplicates()); any duplicate not attributable to a
//     crash window stays a hard violation.
//  3. Conservation: every attempted transmission is either delivered or in
//     exactly one drop bucket, per traffic class, checked every epoch.
//  4. Delivery guarantee (optional; sound only for reroute-capable routers
//     with zero background loss): a (message, subscriber) pair is a
//     violation if it was never delivered although some publisher->
//     subscriber path was continuously clean — links up, not gray in either
//     direction, endpoint brokers up (neither failed nor crashed) — for
//     `guarantee_window` after publication. On such a path every hop
//     transmission succeeds deterministically, so DCRD's retry/reroute
//     machinery must deliver. Under broker crashes the oracle additionally
//     requires that no broker which *touched* the packet (publisher or any
//     copy endpoint) crashed inside the window — a crash at a holding
//     broker destroys the packet no matter how clean the rest of the
//     overlay is, so non-delivery is then expected, not a violation.
//  5. Quiescence: after the scheduler drains, no pending transport copies,
//     no open router episodes, no leftover scheduled events.
//
// Violations are collected, not thrown: the engine folds the messages into
// RunSummary::invariant_violations so tests (the chaos soak) can assert the
// list is empty and print it when it is not.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/dense_map.h"
#include "net/overlay_network.h"
#include "pubsub/publisher.h"
#include "pubsub/subscriptions.h"
#include "routing/router.h"
#include "routing/transport_observer.h"

namespace dcrd {

struct InvariantCheckerConfig {
  // Enable check 4. Callers must only set this for routers that actually
  // promise the guarantee (DCRD) in scenarios with loss_rate == 0 —
  // background loss can legitimately defeat any finite retry budget.
  bool check_delivery_guarantee = false;
  // How long a clean path must persist after publication before
  // non-delivery counts as a violation. Generous compared to the ms-scale
  // timeout/reroute machinery, so only genuine give-ups trip it.
  SimDuration guarantee_window = SimDuration::Seconds(5);
  // Stop recording after this many violations (the first few identify the
  // bug; thousands just drown the report).
  std::size_t max_recorded = 32;
};

class SimInvariantChecker final : public DeliverySink,
                                  public TransportObserver {
 public:
  // Wraps `next` (the metrics collector): deliveries are recorded and
  // forwarded. The network reference provides graph + failure schedules.
  SimInvariantChecker(const OverlayNetwork& network,
                      const SubscriptionTable& subscriptions,
                      DeliverySink& next,
                      InvariantCheckerConfig config = {});

  // DeliverySink: records the (message, subscriber) delivery, forwards.
  void OnDelivered(const Message& message, NodeId subscriber,
                   SimTime arrival) override;

  // TransportObserver: loop-freedom and exactly-once hand-up.
  void OnCopyArrival(std::uint64_t copy_id, NodeId at, NodeId from,
                     const Packet& packet, bool handed_up) override;

  // Engine hook, called when a message enters the system (alongside
  // MetricsCollector::OnPublished).
  void OnPublished(const Message& message);

  // Engine hook at every monitoring epoch: conservation of transmissions.
  void CheckEpoch();

  // Engine hook after the scheduler drains: quiescence (no copy pending in
  // `router`'s transport, no episode open) + the delivery guarantee over
  // all published pairs. `end` is the quiescence time.
  void CheckEndOfRun(const Router& router, SimTime end);

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] std::uint64_t copies_observed() const {
    return copies_observed_;
  }
  // Duplicate hand-ups legally attributable to a broker-restart dedup loss
  // (check 2); always 0 when the crash process is disabled.
  [[nodiscard]] std::uint64_t crash_excused_duplicates() const {
    return crash_excused_duplicates_;
  }

  // When set, the FIRST violation of a run triggers an immediate
  // flight-recorder postmortem to stderr — the events leading up to the bug,
  // captured before further simulation scrolls them out of the ring.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  struct PublishedPair {
    NodeId publisher;
    NodeId subscriber;
    SimTime publish_time;
    bool delivered = false;
  };

  void Record(std::string message);
  // True when some publisher->subscriber path is continuously clean over
  // [t0, t0 + guarantee_window] (capped at `end`): every link up and
  // gray-free in both directions at every failure epoch the window touches,
  // every node on the path up likewise.
  [[nodiscard]] bool CleanPathExists(NodeId publisher, NodeId subscriber,
                                     SimTime t0, SimTime end) const;
  [[nodiscard]] bool LinkClean(LinkId link, SimTime t0, SimTime t1) const;
  [[nodiscard]] bool NodeClean(NodeId node, SimTime t0, SimTime t1) const;

  const OverlayNetwork& network_;
  const SubscriptionTable& subscriptions_;
  DeliverySink& next_;
  InvariantCheckerConfig config_;

  // Last hand-up of each copy id, never cleared. A repeat is either a
  // crash-excused duplicate (node down in between) or a violation.
  struct HandUp {
    NodeId node;
    SimTime time;
  };
  DenseIdMap<HandUp> handed_up_;
  // (message id << 16 | subscriber) -> pair record. Subscriber ids are
  // dense and << 2^16 in every scenario; checked at insert.
  std::unordered_map<std::uint64_t, PublishedPair> pairs_;
  // message id -> brokers that held the packet (publisher + every copy
  // endpoint); feeds the guarantee oracle's touched-broker precondition.
  // Only populated when check_delivery_guarantee is on.
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint32_t>>
      touched_;
  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t copies_observed_ = 0;
  std::uint64_t crash_excused_duplicates_ = 0;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace dcrd
