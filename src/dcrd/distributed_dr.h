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
// On an update it recomputes its own <d,r> (Eq. 2 + Eq. 3 over the cached
// values, budget-filtered, Theorem-1-ordered) and, if the value moved by
// more than `update_threshold_us` (or flipped reachability), broadcasts the
// new value to all neighbours. Quiescence is natural: no change, no broadcast.
// A lost update leaves a neighbour stale — with `rebroadcasts > 0` each
// node re-announces its current value that many times at `rebroadcast_gap`
// intervals after a change, the standard cheap anti-entropy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dcrd/dr_computation.h"
#include "net/overlay_network.h"

namespace dcrd {

struct DistributedDrConfig {
  int max_transmissions = 1;  // paper parameter m (for Eq. 1 lifting)
  double update_threshold_us = 0.5;
  // Anti-entropy: extra announcements of the current value after a change.
  int rebroadcasts = 0;
  SimDuration rebroadcast_gap = SimDuration::Millis(100);
};

class DistributedDrComputation
    : public std::enable_shared_from_this<DistributedDrComputation> {
 public:
  // `budget_us` are the D_XS values (see dr_computation.h); the view
  // supplies the (alpha, gamma) estimates every node uses for Eq. 1/2.
  // Always hold instances in a shared_ptr: in-flight update messages keep
  // the protocol alive via shared_from_this, so an epoch turnover that
  // drops its reference cannot dangle (call Stop() first so stragglers are
  // ignored).
  DistributedDrComputation(OverlayNetwork& network, NodeId subscriber,
                           const MonitoredView& view,
                           std::vector<double> budget_us,
                           DistributedDrConfig config = {});

  // Injects <0,1> at the subscriber. Run the scheduler (to quiescence or a
  // deadline) afterwards; the protocol schedules everything else itself.
  void Start();

  // Retires the protocol: updates already on the wire are dropped on
  // arrival and no further messages are sent.
  void Stop() { stopped_ = true; }

  // Fail-stop recovery: `node` restarted with empty volatile state. Its
  // slot is reset (self and every heard value forgotten), its announcement
  // generation bumps — updates it sent before the crash are dropped on
  // arrival instead of resurrecting pre-crash state — and it re-announces
  // itself and solicits every neighbour's current value, so its <d,r>
  // reconverges without waiting for the next natural change wave.
  void OnNodeRestart(NodeId node);

  // Current (possibly still converging) per-node state: every node's
  // <d,r> and the sending list Algorithm 1 would install at it.
  [[nodiscard]] ListTable Snapshot() const;
  // `node`'s sending list with its Eq. 2 values, lifted from the <d,r> it
  // last heard from each neighbour (which may trail the neighbour's own).
  [[nodiscard]] std::vector<ViaEntry> EligibleEntries(NodeId node) const;

  // Monotonic change counter: bumps whenever any node's state moves.
  // Callers cache Snapshot() results against it (see DcrdRouter's
  // distributed mode).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] std::uint64_t updates_sent() const { return updates_sent_; }
  [[nodiscard]] std::uint64_t updates_received() const {
    return updates_received_;
  }
  // Time of the last local <d,r> change — the convergence instant once the
  // scheduler has drained.
  [[nodiscard]] SimTime last_change() const { return last_change_; }

 private:
  struct NodeState {
    DR self;
    std::vector<DR> heard;  // last value heard per neighbour index
    int pending_rebroadcasts = 0;
    bool rebroadcast_timer_armed = false;
  };

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
  const MonitoredView& view_;
  std::vector<double> budget_us_;
  DistributedDrConfig config_;
  std::vector<NodeState> states_;
  // Per-node announcement generation; bumped by OnNodeRestart.
  std::vector<std::uint32_t> generation_;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t updates_received_ = 0;
  std::uint64_t version_ = 0;
  bool stopped_ = false;
  SimTime last_change_ = SimTime::Zero();
};

}  // namespace dcrd
