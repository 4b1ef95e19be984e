// The DCRD router — Algorithms 1 and 2 of the paper.
//
// Per monitoring epoch (Algorithm 1): for every (topic, subscriber) pair the
// router recomputes the distributed <d,r> tables and Theorem-1 sending lists
// from the freshly monitored link estimates.
//
// Per packet (Algorithm 2): the holding broker walks the subscriber's
// sending list — first entry not yet on the packet's routing path and not
// already tried in this processing episode — sends one copy per distinct
// next hop (subscribers sharing a next hop share the copy), and arms an ACK
// timer of 2*alpha_hat + slack. A hop that stays silent for m transmissions
// is marked tried and the walk continues; when the list is exhausted the
// packet is rerouted to the broker's *upstream* node (read from the routing
// path), which resumes from its own sending list. Only the publisher with
// an exhausted list drops a packet.
//
// Two deliberate refinements over the paper's pseudocode, both documented in
// DESIGN.md:
//  * a transient per-episode tried-set so one episode walks the list
//    strictly left-to-right (the printed Algorithm 2 would re-pick a
//    neighbour that just timed out);
//  * an optional best-effort fallback list used after the deadline-eligible
//    list is exhausted, so packets that can no longer meet the deadline are
//    still delivered (the paper's delivery-ratio metric counts them). It
//    is the subscriber's unconstrained list, shared by all its
//    destinations (dr_computation.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/dense_map.h"
#include "common/slot_map.h"
#include "dcrd/distributed_dr.h"
#include "dcrd/dr_computation.h"
#include "routing/hop_transport.h"
#include "routing/message_records.h"
#include "routing/router.h"

namespace dcrd {

struct DcrdConfig {
  // The router's constructor sets max_transmissions from the context.
  DrComputationConfig computation;
  // Walk the fallback list (the subscriber's unconstrained list) after the
  // primary list is exhausted.
  bool best_effort_fallback = true;
  // Bounds the reroute hops to the upstream node one episode launches per
  // subscriber before declaring it undeliverable: max(cap, 1) launches, so
  // a subscriber always gets its first reroute and 0 behaves like 1 (the
  // ablation's "no upstream retry" row is that single launch). The upstream
  // link itself may be failed; failures last ~1 s, so the cap only fires on
  // pathological outages.
  int reroute_retry_cap = 20;
  // The paper's persistency mode (Section III): instead of dropping a
  // packet whose every option is exhausted, the broker stores it and
  // re-attempts delivery once a second, up to `persistence_max_retries`
  // times — "persist all packets, and then send them when the failures are
  // recovered". Off by default, as in the paper's evaluation; the
  // ext2_persistence bench measures its cost and benefit under long
  // outages.
  bool enable_persistence = false;
  int persistence_max_retries = 60;
  // Run the Section III-B recursion as the real gossip protocol instead of
  // the centralized solver: <d,r> updates travel as control messages after
  // every epoch (counted in the kControl counters) and routing reads each
  // gossip's live state — every node's announced <d,r> and the list its
  // last evaluation stored, possibly still converging. Each rebuild lifts
  // the links once (LiftedAdjacency, under the context's m) for all of its
  // gossips. With best_effort_fallback a second, budget-free gossip per
  // destination feeds the fallback lists (doubling control traffic),
  // mirroring the solver's unconstrained fixed point. Needs
  // computation.ordering to be kTheorem1.
  bool use_distributed_computation = false;
  // Router defaults damp gossip chatter (50 us threshold ~= sub-tenth-of-a-
  // percent d error) and repair one lost update per change burst.
  DistributedDrConfig distributed{
      /*update_threshold_us=*/50.0, /*rebroadcasts=*/1,
      /*rebroadcast_gap=*/SimDuration::Millis(100)};
};

// Control-plane health of solver-mode rebuilds, cumulative over the run:
// one solve per (topic, subscriber) destination per rebuild.
struct SolveStats {
  std::uint64_t solves = 0;       // destinations solved
  std::uint64_t sweeps = 0;       // sum of their sweeps_used
  std::uint64_t unconverged = 0;  // solves stopped by max_sweeps
};

class DcrdRouter final : public Router {
 public:
  DcrdRouter(RouterContext context, DcrdConfig config = {});

  void Rebuild(const MonitoredView& view) override;
  void Publish(const Message& message) override;
  [[nodiscard]] std::string_view name() const override { return "DCRD"; }

  // Tables for a (topic, subscriber); CHECK-fails when absent. Tests use
  // this to assert sending-list structure. The tables view the solver's
  // arrays, so they are valid until the next Rebuild.
  [[nodiscard]] const DestinationTables& TablesFor(TopicId topic,
                                                   NodeId subscriber) const;
  // Sums of TablesFor's sweeps_used / converged over every rebuild so far;
  // stays zero in distributed mode, which runs no solver.
  [[nodiscard]] const SolveStats& solve_stats() const { return solve_stats_; }

  // Writes the model state the delay auditor needs, one JSONL row per
  // currently reachable (topic, subscriber) pair: the publisher node's
  // expected <d, r> and its primary (Theorem-1) sending list, stamped with
  // `now` (the epoch the rows belong to). The engine calls it right after
  // each Rebuild, when in distributed mode every new gossip still holds
  // the publisher at <inf, 0>, so only solver mode writes rows; a
  // reachable publisher in distributed mode CHECK-fails rather than write
  // a row no gossip path backs. Read-only; never touches an RNG stream.
  void WriteAuditSnapshot(std::ostream& os, SimTime now) const;
  [[nodiscard]] std::uint64_t dropped_undeliverable() const {
    return dropped_undeliverable_;
  }
  [[nodiscard]] std::uint64_t persisted_packets() const {
    return persisted_packets_;
  }
  [[nodiscard]] std::uint64_t persistence_retries() const {
    return persistence_retries_;
  }
  [[nodiscard]] TransportStats transport_stats() const override {
    return transport_.stats();
  }
  [[nodiscard]] std::size_t open_episodes() const override {
    return episodes_.size();
  }
  [[nodiscard]] std::size_t message_records() const override {
    return records_.size();
  }
  void SampleBrokerHealth(std::vector<BrokerHealth>& out) const override {
    transport_.SampleBrokerHealth(out);
  }

  // Fail-stop crash–recovery (see net/broker_lifecycle.h). A crash destroys
  // every piece of the broker's volatile state: transport pendings and
  // dedup memory, open processing episodes, the responsibilities it
  // handled (a new crash round retires its keys in every message record)
  // and any packets parked by persistency mode. A restart opens a gossip-resync
  // window: in distributed mode the broker's <d,r> protocol state is reset
  // and re-announced with a fresh generation; in solver mode one control
  // round trip per neighbour models the table re-fetch. Until the window
  // closes the broker forwards best-effort along its physical adjacency —
  // delivery never waits for convergence.
  std::size_t OnBrokerCrash(NodeId node) override;
  void OnBrokerRestart(NodeId node) override;
  [[nodiscard]] ResyncStats resync_stats() const override {
    return resync_stats_;
  }

 private:
  // One processing episode (Algorithm 2's while-loop at one broker for one
  // received packet). Pooled in a SlotMap: a released episode keeps its
  // buffers for the next tenant, so opening one allocates nothing once the
  // pool is warm. Per-subscriber state is indexed like base.destinations()
  // (sorted, unique), so every buffer is bounded by the destination count
  // except `tried`, which a subscriber grows at most once per neighbour.
  struct Episode {
    NodeId node;
    SlotHandle record;  // its message's record, referenced while open
    Packet base;  // as received; the routing path does not yet include node
    // Destinations awaiting a next-hop decision, ascending. A pass empties
    // it and a failed copy refills it with its own group, so every group
    // is ascending too.
    std::vector<std::uint32_t> pending;
    // Launch number of the copy currently carrying each destination. Launch
    // numbers are unique within the episode, so a completion finds its
    // group here and a crash that drops the callbacks unrun leaks nothing.
    std::vector<std::uint32_t> copy;
    std::vector<int> reroutes;  // upstream reroutes launched per destination
    std::vector<std::pair<std::uint32_t, NodeId>> tried;  // silent hops
    std::uint32_t launches = 0;
    int in_flight = 0;  // copies awaiting ACK or timeout
  };

  void OnArrival(NodeId at, const Packet& packet, NodeId from);
  // Takes a pooled episode at `node` that takes over one of the caller's
  // references on `record`. It still holds its previous tenant's state:
  // the caller fills its base and then calls StartEpisode, which resets the
  // bookkeeping from that base and runs the first pass.
  Episode& OpenEpisode(NodeId node, SlotHandle record, SlotHandle* handle);
  void StartEpisode(SlotHandle handle, Episode& episode);
  // Releases an episode and its reference on the message's record.
  void CloseEpisode(SlotHandle handle);
  // Persistency mode: parks the (message, subscriber) at the episode's
  // node and arms a retry timer; gives up into dropped_undeliverable_ past
  // the retry cap.
  void HandleUndeliverable(const Episode& episode, NodeId subscriber);
  // Flight-recorder kDrop[undeliverable] hook, fired exactly where
  // dropped_undeliverable_ increments.
  void RecordUndeliverable(NodeId node, const Packet& base, NodeId subscriber);
  // Key of one responsibility in its message's record: the broker's crash
  // round, the persistence generation (the flow label, so a
  // stored-and-retried packet is not mistaken for a duplicate of its own
  // failed first attempt), the broker and the subscriber, in 16, 8, 20 and
  // 20 bits. The constructor bounds node ids and OnBrokerCrash the rounds,
  // so the fields stay apart and two responsibilities never share a key.
  [[nodiscard]] std::uint64_t ResponsibilityKey(NodeId broker,
                                                const Packet& packet,
                                                NodeId subscriber) const {
    return (static_cast<std::uint64_t>(crash_round_[broker.underlying()])
            << 48) |
           (static_cast<std::uint64_t>(packet.flow_label()) << 40) |
           (static_cast<std::uint64_t>(broker.underlying()) << 20) |
           subscriber.underlying();
  }
  // Drives Algorithm 2's while-loop for one episode in a single pass: one
  // next-hop choice per pending subscriber, one copy per distinct hop in
  // order of first appearance, undeliverable subscribers in pending order.
  void ProcessEpisode(SlotHandle handle);
  // Sends launch number `launch`, carrying group_scratch_, to `hop`.
  void LaunchCopy(SlotHandle handle, Episode& episode, Neighbor hop,
                  bool is_reroute, std::uint32_t launch);
  void OnCopyResolved(SlotHandle handle, NodeId next_hop,
                      std::uint32_t launch, bool acked);
  // The first sending-list entry for destination `index` that is neither
  // on the routing path nor tried, with the link the entry names; falls
  // back to `upstream` under the reroute cap, leaving the link for the
  // launch to look up; an invalid peer when the packet must be dropped.
  // Reads the routing path through the stamp, so only ProcessEpisode's
  // pass may call it.
  [[nodiscard]] Neighbor SelectNextHop(const Episode& episode,
                                       std::uint32_t index,
                                       NodeId upstream) const;
  // Stamps `packet`'s routing path for one pass's membership tests.
  void StampRoutingPath(const Packet& packet);
  [[nodiscard]] bool OnStampedPath(NodeId node) const {
    return path_stamp_[node.underlying()] == path_pass_;
  }
  // Like TablesFor but returns nullptr when the subscriber is unknown —
  // e.g. it unsubscribed (churn) while this packet was in flight.
  [[nodiscard]] const DestinationTables* FindTables(TopicId topic,
                                                    NodeId subscriber) const;
  // Per-node routing state for (topic, subscriber, node) from whichever
  // source is active (solver tables or live gossip state); nullopt when the
  // subscriber is unknown.
  [[nodiscard]] std::optional<NodeTables> GetNodeTables(TopicId topic,
                                                        NodeId subscriber,
                                                        NodeId node) const;
  // Index of (topic, subscriber) into tables_ / gossip_, or kNoSubscriber.
  [[nodiscard]] std::uint32_t SubscriberIndex(TopicId topic,
                                              NodeId subscriber) const;
  [[nodiscard]] NodeId UpstreamOf(const Episode& episode) const;
  void FinishEpisodeIfIdle(SlotHandle handle);
  // True while `node` is inside its post-restart resync window.
  [[nodiscard]] bool ResyncActive(NodeId node) const {
    return context_.network->scheduler().now() <
           resync_until_[node.underlying()];
  }
  // How long a restarted broker distrusts its tables: three request/reply
  // exchanges with its slowest neighbour (solicitation round trip plus two
  // gossip rounds of slack), floored at 1 ms.
  [[nodiscard]] SimDuration ResyncWindow(NodeId node) const;

  RouterContext context_;
  DcrdConfig config_;
  HopTransport transport_;
  const MonitoredView* view_ = nullptr;

  // This epoch's solver: it owns the flat tables that tables_ views, one
  // per subscriber and one per destination that solved.
  std::optional<DrSolver> solver_;
  // One entry per (topic, subscriber) destination, topic-major in
  // subscription-list order: the solver's request order.
  std::vector<DestinationTables> tables_;
  // Dense [topic][node] array: topic * node_count + node -> index into
  // tables_ / gossip_, kNoSubscriber when not subscribed.
  static constexpr std::uint32_t kNoSubscriber = ~std::uint32_t{0};
  std::vector<std::uint32_t> subscriber_index_;

  // Distributed mode: this epoch's lifted links and one gossip pair per
  // destination, read live. The unconstrained gossip's lists are the
  // fallback lists as they stand, like the solver's.
  std::optional<LiftedAdjacency> adjacency_;
  struct GossipPair {
    std::shared_ptr<DistributedDrComputation> constrained;
    std::shared_ptr<DistributedDrComputation> unconstrained;  // fallback
  };
  std::vector<GossipPair> gossip_;  // indexed like tables_

  SlotMap<Episode> episodes_;
  // Duplicate suppression: a broker processes each (message, subscriber)
  // responsibility at most once per epoch on a *fresh* visit. Keying by
  // message alone would be wrong — two copies of one message covering
  // disjoint subscriber groups can legitimately reconverge at a broker
  // after failure-driven divergence, and the second group must still be
  // forwarded. Rerouted-back packets bypass the check via routing-path
  // membership (the broker must re-handle responsibilities its failed
  // subtree returned). One record of keys per live message
  // (message_records.h), not one per flow, so a persistence retry parked
  // at one broker sees the keys another broker's retry of the same
  // generation left. Rebuild clears every live record's set and resets the
  // crash rounds; a broker's crash bumps its round.
  MessageRecords<DenseIdSet> records_;
  std::vector<std::uint32_t> crash_round_;
  // Member scratch for the per-packet paths, capacity kept across calls:
  // the subscribers an arrival or publish hands to a new episode, one
  // choice per pending subscriber in a pass, the group and packet of the
  // copy being launched (the transport hands back its slot's previous
  // buffers), and crash sweeps.
  std::vector<NodeId> destinations_scratch_;
  std::vector<Neighbor> choices_scratch_;
  std::vector<NodeId> group_scratch_;
  Packet send_scratch_;
  std::vector<SlotHandle> sweep_scratch_;
  // Routing-path membership for the pass in progress, one entry per
  // broker: a broker is on the episode's path iff its entry equals
  // path_pass_. A pass stamps the path once instead of scanning it per
  // candidate hop.
  std::vector<std::uint32_t> path_stamp_;
  std::uint32_t path_pass_ = 0;
  // Persistency-mode state: retry attempts per (node, message, subscriber).
  std::map<std::tuple<NodeId, std::uint64_t, NodeId>, int> persisted_;
  SolveStats solve_stats_;
  std::uint64_t dropped_undeliverable_ = 0;
  std::uint64_t persisted_packets_ = 0;
  std::uint64_t persistence_retries_ = 0;
  // Crash–recovery resync state, one slot per broker. `resync_until_` is
  // the end of the node's current best-effort window (SimTime() = none);
  // `resync_round_` guards the completion timer against the ABA of a
  // second crash landing inside the first window.
  std::vector<SimTime> resync_until_;
  std::vector<std::uint32_t> resync_round_;
  ResyncStats resync_stats_;
};

}  // namespace dcrd
