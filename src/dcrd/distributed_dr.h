// The distributed <d,r> computation as an actual network protocol
// (paper Section III-B, run literally).
//
// "The recursive computation process starts when a subscriber S subscribes
//  to a topic ... S then shares its parameters <0,1> with its immediate
//  neighbors. Other nodes who have received the parameters regarding
//  subscriber S from its neighbors start the computation of its own <d,r>
//  distributively."
//
// DcrdRouter uses a centralized fixed-point solver (dr_computation.h) as a
// fast, deterministic stand-in for this protocol; this class runs the real
// thing — <d,r> updates travel as control messages over the overlay links,
// paying propagation delay and exposed to the loss and failure processes —
// so we can (a) verify the solver computes exactly what the protocol
// converges to, and (b) measure what the paper never reports: convergence
// latency and control-message cost per (subscriber, epoch).
//
// Protocol: every node caches the last <d,r> heard from each neighbour.
// On an update it runs the solver's update rule over the cached values
// (SortEligible and WriteList in dr_computation.h: budget-filtered,
// Theorem-1 ordered, Eq. 2 from the rebuild's LiftedAdjacency, Eq. 3),
// stores the resulting sending list and, if its <d,r> moved by more than
// `update_threshold_us` (DrChange), broadcasts the new value to all
// neighbours. Quiescence is natural: no change, no broadcast. A lost
// update leaves a neighbour stale — with `rebroadcasts > 0` each node
// re-announces its current value that many times at `rebroadcast_gap`
// intervals after a change, the standard cheap anti-entropy.
//
// Nothing damps a cycle: the budget filter can make a node's value
// oscillate between points more than the threshold apart, and the protocol
// then keeps announcing until it is stopped (DESIGN.md §3b).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dcrd/dr_computation.h"
#include "net/overlay_network.h"

namespace dcrd {

struct DistributedDrConfig {
  double update_threshold_us = 0.5;
  // Anti-entropy: extra announcements of the current value after a change.
  int rebroadcasts = 0;
  SimDuration rebroadcast_gap = SimDuration::Millis(100);
};

class DistributedDrComputation
    : public std::enable_shared_from_this<DistributedDrComputation> {
 public:
  // `adjacency` is the overlay's links lifted under the monitored view and
  // m (Eq. 1), `budget_us` the D_XS values (see dr_computation.h). The
  // adjacency must outlive every update the protocol handles: Stop() it
  // before destroying the adjacency. Always hold instances in a
  // shared_ptr: in-flight update messages keep the protocol alive via
  // shared_from_this, so an epoch turnover that drops its reference cannot
  // dangle (call Stop() first so stragglers are ignored).
  DistributedDrComputation(OverlayNetwork& network, NodeId subscriber,
                           const LiftedAdjacency& adjacency,
                           std::vector<double> budget_us,
                           DistributedDrConfig config = {});

  // Injects <0,1> at the subscriber. Run the scheduler (to quiescence or a
  // deadline) afterwards; the protocol schedules everything else itself.
  void Start();

  // Retires the protocol: updates already on the wire are dropped on
  // arrival and no further messages are sent.
  void Stop() { stopped_ = true; }

  // Fail-stop recovery: `node` restarted with empty volatile state. Its
  // slot is reset (self, sending list and every heard value forgotten),
  // its announcement generation bumps — updates it sent before the crash
  // are dropped on arrival instead of resurrecting pre-crash state — and
  // it re-announces itself and solicits every neighbour's current value,
  // so its <d,r> reconverges without waiting for the next natural change
  // wave.
  void OnNodeRestart(NodeId node);

  // Current (possibly still converging) per-node state: `node`'s announced
  // <d,r> (the subscriber's is <0,1>) and the sending list its last
  // evaluation built from the values it last heard, which may trail the
  // neighbours' own. Views stay valid for the protocol's lifetime; their
  // contents change as updates land.
  [[nodiscard]] const DR& dr(NodeId node) const {
    return states_[node.underlying()].self;
  }
  [[nodiscard]] std::span<const Neighbor> list(NodeId node) const {
    const std::uint32_t x = node.underlying();
    return {lists_.data() + adjacency_.begin[x], states_[x].list_size};
  }

  [[nodiscard]] std::uint64_t updates_sent() const { return updates_sent_; }
  // Time of the last local <d,r> change — the convergence instant once the
  // scheduler has drained.
  [[nodiscard]] SimTime last_change() const { return last_change_; }

 private:
  struct NodeState {
    DR self;
    std::uint32_t list_size = 0;  // in lists_, from the node's first arc
    int pending_rebroadcasts = 0;
    bool rebroadcast_timer_armed = false;
  };

  // Runs the update rule at `node` over its heard values: stores its list
  // and, on a change past the threshold, its <d,r> and an announcement.
  void Recompute(NodeId node);
  void Broadcast(NodeId node);
  void ScheduleRebroadcasts(NodeId node);
  void RebroadcastTick(NodeId node);
  // `generation` is the sender's announcement generation at send time; a
  // mismatch with its current generation marks a pre-crash straggler.
  void HandleUpdate(NodeId at, NodeId from, const DR& value,
                    std::uint32_t generation);

  OverlayNetwork& network_;
  NodeId subscriber_;
  const LiftedAdjacency& adjacency_;
  std::vector<double> budget_us_;
  DistributedDrConfig config_;
  std::vector<NodeState> states_;
  // Per arc of the adjacency: the last value its node heard from the arc's
  // peer, the node's warm sort order, and a slot of the node's list.
  std::vector<DR> heard_;
  std::vector<std::uint32_t> warm_;
  std::vector<Neighbor> lists_;
  EvaluationScratch scratch_;
  // Per-node announcement generation; bumped by OnNodeRestart.
  std::vector<std::uint32_t> generation_;
  std::uint64_t updates_sent_ = 0;
  bool stopped_ = false;
  SimTime last_change_ = SimTime::Zero();
};

}  // namespace dcrd
