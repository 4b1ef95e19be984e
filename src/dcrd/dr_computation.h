// Distributed <d,r> computation and sending-list construction
// (paper Sections III-B and III-C, Algorithm 1).
//
// The paper's nodes run an asynchronous recursion seeded at the subscriber
// (<0,1>), each node recomputing its <d,r> from its neighbours' values and
// re-sharing. We emulate that with synchronous Gauss–Seidel sweeps over the
// nodes, ordered by monitored distance to the subscriber (information flows
// outward from S, so this ordering converges in about
// diameter-many sweeps); iteration stops when no node's d moved by more
// than `tolerance_us`, or at `max_sweeps` — the cap mirrors the fact that a
// real deployment stops gossiping when updates stop changing anything.
//
// Eligibility (Sec. III-C): neighbour i enters X's sending list toward S
// only if d_i < D_XS, with D_XS = D_PS - (monitored shortest delay P->X).
// The optional *fallback list* holds the remaining finite-<d,r> neighbours,
// Theorem-1 sorted; the router walks it only after the primary list is
// exhausted so that packets which can no longer meet the deadline are still
// delivered (the paper's "delivery ratio" counts late packets, so DCRD must
// keep forwarding past deadline-infeasible states). Fallback entries never
// contribute to the advertised <d_X, r_X>.
//
// One rebuild solves every (topic, subscriber) destination against the same
// monitored view, so DrSolver shares what does not depend on the
// destination:
//  * per rebuild — every link lifted through Eq. 1 once (the m-transmission
//    model depends only on the view and m), kept beside the adjacency it
//    is read with;
//  * per subscriber — the sweep order (a Dijkstra from S) and the
//    unconstrained fixed point behind the fallback lists, which depend on
//    (subscriber, view, m, ordering) but not on the publisher or deadline;
//  * per node evaluation — one reused scratch list, sorted in place.
// Each shared value is computed by exactly the arithmetic the per-destination
// recomputation used, and sweeps visit nodes in the same order, so the
// tables are bit-identical to solving every destination from scratch.
// Once a subscriber's shared state exists, a solve allocates only the
// tables it returns, however many sweeps it runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "dcrd/dr.h"
#include "graph/graph.h"
#include "net/link_monitor.h"

namespace dcrd {

struct DrComputationConfig {
  int max_transmissions = 1;  // paper parameter m
  int max_sweeps = 64;
  double tolerance_us = 0.5;
  bool build_fallback = true;
  // Sending-list order; kTheorem1 is DCRD, the others are ablations.
  OrderingPolicy ordering = OrderingPolicy::kTheorem1;
};

// Per-node routing state toward one subscriber.
struct NodeTables {
  DR dr;                           // <d_X, r_X>
  std::vector<ViaEntry> primary;   // the sending list (Theorem-1 order)
  std::vector<ViaEntry> fallback;  // best-effort extension (Theorem-1 order)
};

// All per-node state for one (publisher, subscriber, deadline) destination.
struct DestinationTables {
  NodeId subscriber;
  double deadline_us = 0.0;             // D_PS
  std::vector<double> budget_us;        // D_XS per node (-inf if P can't reach X)
  std::vector<NodeTables> per_node;
  int sweeps_used = 0;
  bool converged = false;
};

// Per-node delay budgets D_XS = D_PS - dist(P, X) (Sec. III-C), where
// `publisher_dist_us[x]` is the monitored shortest delay from the publisher
// to x. The subscriber delivers to itself within any budget, so its own
// entry is floored at 1 us.
std::vector<double> DeadlineBudgets(
    double deadline_us, const std::vector<double>& publisher_dist_us,
    NodeId subscriber);

// The <d,r> solver for one monitored view: construct it once per rebuild
// and Solve each destination. Holds references to `graph` and `view`,
// which must outlive it.
class DrSolver {
 public:
  DrSolver(const Graph& graph, const MonitoredView& view,
           const DrComputationConfig& config);

  // Tables toward `subscriber` under deadline D_PS = `deadline_us`;
  // `publisher_dist_us[x]` is the monitored shortest delay from the
  // publisher to x (infinity when unreachable) — the caller computes it
  // once per topic and shares it across that topic's subscribers.
  DestinationTables Solve(NodeId subscriber, double deadline_us,
                          const std::vector<double>& publisher_dist_us);

 private:
  // One direction of a link, already lifted through Eq. 1.
  struct Arc {
    NodeId peer;
    LinkId link;
    LinkModel lifted;
  };
  // What a subscriber's destinations share (see the header comment).
  struct SubscriberState {
    bool ready = false;
    std::vector<std::uint32_t> order;  // sweep order, closest to S first
    std::vector<DR> unconstrained;     // budget-free fixed point (fallback)
  };
  struct Convergence {
    int sweeps_used = 0;
    bool converged = false;
  };

  const SubscriberState& PrepareSubscriber(NodeId subscriber);
  // Fills eligible_ with x's sending-list entries under `budget_us`.
  void CollectEligible(const std::vector<DR>& dr, std::uint32_t x,
                       double budget_us);
  // Gauss–Seidel sweeps from scratch into `dr` under per-node budgets.
  Convergence SolveFixedPoint(NodeId subscriber,
                              const std::vector<double>& budget_us,
                              const std::vector<std::uint32_t>& order,
                              std::vector<DR>& dr);

  const Graph& graph_;
  const MonitoredView& view_;
  const DrComputationConfig config_;
  std::vector<std::uint32_t> arc_begin_;  // node x's arcs: [x] .. [x + 1]
  std::vector<Arc> arcs_;                 // usable (gamma^(m) > 0) only
  std::vector<double> unbounded_;         // +infinity budget per node
  std::vector<SubscriberState> subscribers_;  // by node id, filled lazily
  std::vector<DR> dr_;                    // constrained fixed point
  std::vector<ViaEntry> eligible_;        // one node's list under build
};

// One destination solved by a fresh DrSolver (same tables as
// DrSolver::Solve); for callers that need a single destination.
DestinationTables ComputeDestinationTables(
    const Graph& graph, const MonitoredView& view, NodeId subscriber,
    double deadline_us, const std::vector<double>& publisher_dist_us,
    const DrComputationConfig& config);

// Monitored shortest delay from `source` to every node, in microseconds
// (infinity when unreachable) — the helper for both D_XS budgets and sweep
// ordering.
std::vector<double> MonitoredDistancesFrom(const Graph& graph,
                                           const MonitoredView& view,
                                           NodeId source);

}  // namespace dcrd
