#include "sim/invariant_checker.h"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "graph/connectivity.h"
#include "obs/flight_recorder.h"
#include "pubsub/packet.h"

namespace dcrd {

namespace {

std::uint64_t PairKey(MessageId message, NodeId subscriber) {
  DCRD_CHECK(subscriber.underlying() < (1ULL << 16));
  return (message.value << 16) | subscriber.underlying();
}

}  // namespace

SimInvariantChecker::SimInvariantChecker(const OverlayNetwork& network,
                                         const SubscriptionTable& subscriptions,
                                         DeliverySink& next,
                                         InvariantCheckerConfig config)
    : network_(network),
      subscriptions_(subscriptions),
      next_(next),
      config_(config) {}

void SimInvariantChecker::Record(std::string message) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(std::move(message));
  }
  // Dump on the first violation only: the ring still holds the events that
  // led up to it, and one postmortem per run is enough to debug from.
  if (violation_count_ == 1 && recorder_ != nullptr) {
    recorder_->DumpPostmortem(std::cerr, 256, violations_.back());
  }
}

void SimInvariantChecker::OnPublished(const Message& message) {
  if (!config_.check_delivery_guarantee) return;
  touched_[message.id.value].insert(message.publisher.underlying());
  for (const Subscription& sub :
       subscriptions_.subscriptions(message.topic)) {
    PublishedPair pair;
    pair.publisher = message.publisher;
    pair.subscriber = sub.subscriber;
    pair.publish_time = message.publish_time;
    pairs_.emplace(PairKey(message.id, sub.subscriber), pair);
  }
}

void SimInvariantChecker::OnDelivered(const Message& message,
                                      NodeId subscriber, SimTime arrival) {
  if (config_.check_delivery_guarantee) {
    const auto it = pairs_.find(PairKey(message.id, subscriber));
    if (it != pairs_.end()) it->second.delivered = true;
  }
  next_.OnDelivered(message, subscriber, arrival);
}

void SimInvariantChecker::OnCopyArrival(std::uint64_t copy_id, NodeId at,
                                        NodeId from, const Packet& packet,
                                        bool handed_up) {
  ++copies_observed_;
  // 1. Loop freedom. The sender stamps itself before every send, so `from`
  // is always on the path; the receiver may only be on it when the copy is
  // a reroute back to the sender's original upstream.
  if (packet.OnRoutingPath(at) && at != packet.UpstreamOf(from)) {
    std::ostringstream os;
    os << "routing loop: copy " << copy_id << " of message "
       << packet.message().id << " arrived at " << at << " from " << from
       << ", which is on its routing path but is not the sender's upstream";
    Record(os.str());
  }
  if (config_.check_delivery_guarantee) {
    auto& touched = touched_[packet.message().id.value];
    touched.insert(at.underlying());
    touched.insert(from.underlying());
  }
  // 2. Exactly-once hand-up per copy id, across epoch-boundary dedup
  // clears. Crash-aware: a restart wipes the receiver's dedup window, so a
  // repeat hand-up at the *same* node is legal iff the node was down at
  // some point between the two hand-ups; everything else is a hard
  // violation.
  if (handed_up) {
    const SimTime now = network_.scheduler().now();
    const auto [last, inserted] = handed_up_.TryEmplace(copy_id);
    if (!inserted) {
      const BrokerCrashSchedule& crashes = network_.crashes();
      const bool excused = crashes.enabled() && at == last->node &&
                           crashes.DownDuring(at, last->time, now);
      if (excused) {
        ++crash_excused_duplicates_;
      } else {
        std::ostringstream os;
        os << "copy " << copy_id << " of message " << packet.message().id
           << " handed up twice (at " << at
           << ") with no broker crash to explain it";
        Record(os.str());
      }
    }
    *last = HandUp{at, now};
  }
}

void SimInvariantChecker::CheckEpoch() {
  static constexpr TrafficClass kClasses[] = {
      TrafficClass::kData, TrafficClass::kAck, TrafficClass::kControl};
  static constexpr const char* kNames[] = {"data", "ack", "control"};
  for (std::size_t c = 0; c < 3; ++c) {
    const TrafficCounters& counters = network_.counters(kClasses[c]);
    if (counters.attempted != counters.accounted()) {
      std::ostringstream os;
      os << kNames[c] << " counter leak: attempted=" << counters.attempted
         << " but delivered+dropped=" << counters.accounted();
      Record(os.str());
    }
  }
}

bool SimInvariantChecker::LinkClean(LinkId link, SimTime t0,
                                    SimTime t1) const {
  // Outages and gray episodes are epoch-aligned.
  const FailureSchedule& failures = network_.failures();
  const GrayFailureSchedule& gray = network_.gray();
  return HoldsThroughout(failures.epoch(), t0, t1, [&](SimTime t) {
    return failures.IsUp(link, t) && !gray.Active(link, t);
  });
}

bool SimInvariantChecker::NodeClean(NodeId node, SimTime t0,
                                    SimTime t1) const {
  const NodeFailureSchedule& nodes = network_.node_failures();
  const BrokerCrashSchedule& crashes = network_.crashes();
  return HoldsThroughout(network_.failures().epoch(), t0, t1, [&](SimTime t) {
    return nodes.IsUp(node, t) && crashes.Up(node, t);
  });
}

bool SimInvariantChecker::CleanPathExists(NodeId publisher, NodeId subscriber,
                                          SimTime t0, SimTime end) const {
  const SimTime t1 = std::min(t0 + config_.guarantee_window, end);
  if (!NodeClean(publisher, t0, t1)) return false;
  // Every node reached from the clean publisher is clean, so admitting a
  // link only when it and both its endpoints stay clean walks exactly the
  // continuously-clean paths.
  const Graph& graph = network_.graph();
  return ReachableFrom(graph, publisher, [&](LinkId link) {
    const EdgeSpec& edge = graph.edge(link);
    return LinkClean(link, t0, t1) && NodeClean(edge.a, t0, t1) &&
           NodeClean(edge.b, t0, t1);
  })[subscriber.underlying()];
}

void SimInvariantChecker::CheckEndOfRun(const Router& router, SimTime end) {
  const TransportStats transport = router.transport_stats();
  CheckEpoch();
  // 5. Quiescence: nothing in flight or open, and no record left.
  const std::pair<std::size_t, const char*> leftovers[] = {
      {transport.pending_copies, "transport copies still pending"},
      {router.open_episodes(), "router episodes still open"},
      {transport.copy_records, "transport copy records still live"},
      {router.message_records(), "message records still live"}};
  for (const auto& [count, what] : leftovers) {
    if (count == 0) continue;
    std::ostringstream os;
    os << count << " " << what << " after quiescence";
    Record(os.str());
  }
  // 4. Delivery guarantee.
  if (!config_.check_delivery_guarantee) return;
  const BrokerCrashSchedule& crashes = network_.crashes();
  for (const auto& [key, pair] : pairs_) {
    if (pair.delivered || pair.subscriber == pair.publisher) continue;
    // Touched-broker precondition: a crash at any broker that held this
    // packet destroys it regardless of path cleanliness elsewhere, so
    // non-delivery is expected and the oracle stays silent.
    if (crashes.enabled()) {
      const SimTime t1 =
          std::min(pair.publish_time + config_.guarantee_window, end);
      const auto touched_it = touched_.find(key >> 16);
      if (touched_it != touched_.end() &&
          std::any_of(touched_it->second.begin(), touched_it->second.end(),
                      [&](std::uint32_t broker) {
                        return crashes.DownDuring(NodeId(broker),
                                                  pair.publish_time, t1);
                      })) {
        continue;
      }
    }
    if (CleanPathExists(pair.publisher, pair.subscriber, pair.publish_time,
                        end)) {
      std::ostringstream os;
      os << "delivery guarantee: message " << (key >> 16) << " published "
         << pair.publish_time << " at " << pair.publisher
         << " never reached " << pair.subscriber
         << " despite a continuously clean path";
      Record(os.str());
    }
  }
}

}  // namespace dcrd
