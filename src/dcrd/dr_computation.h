// The <d,r> update rule and the centralized solver that runs it
// (paper Sections III-B and III-C, Algorithm 1).
//
// The update rule. One evaluation of node X toward subscriber S keeps the
// eligible neighbours (reachable, and d_i < D_XS with D_XS = D_PS -
// monitored shortest delay P->X, Sec. III-C), lifts each across its link
// (Eq. 2), sorts the usable entries under SendsBefore<kPolicy> and folds
// them through Eq. 3 (CombineOrdered); X's list is the usable entries in
// sending order, then any eligible but unusable ones in arc order.
// SortEligible and WriteList are that rule, run by the solver on its
// table's current values and by the gossip (distributed_dr.h) on the values
// each node last heard; DrChange measures how far a <d,r> moved.
//
// The solver. The paper's nodes run an asynchronous recursion seeded at the
// subscriber (<0,1>), each node recomputing its <d,r> from its neighbours'
// values and re-sharing. DrSolver emulates that with synchronous
// Gauss–Seidel sweeps over the nodes, ordered by monitored distance to the
// subscriber (information flows outward from S, so this ordering converges
// in about diameter-many sweeps); iteration stops when no node's <d,r>
// moved by more than `tolerance_us`, or at `max_sweeps` — the cap mirrors
// the fact that a real deployment stops gossiping when updates stop
// changing anything.
//
// The *fallback list* of a destination is its subscriber's unconstrained
// (budget-free) list, Theorem-1 sorted; the router walks it, under
// DcrdConfig::best_effort_fallback, only after the primary list is
// exhausted so that packets which can no longer meet the deadline are
// still delivered (the paper's "delivery ratio" counts late packets, so
// DCRD must keep forwarding past deadline-infeasible states). It repeats
// the primary neighbours, but once the primary scan found nothing each of
// them is on the routing path or already tried, so the walk picks what the
// list without them would. Fallback entries never contribute to the
// advertised <d_X, r_X>.
//
// One rebuild solves every (topic, subscriber) destination against the same
// monitored view, so DrSolver shares what does not depend on the
// destination:
//  * per rebuild — the LiftedAdjacency: every link lifted through Eq. 1
//    once (the m-transmission model depends only on the view and m);
//  * per subscriber — the sweep order (a Dijkstra from S) and the
//    unconstrained fixed point and lists, which depend on (subscriber,
//    view, m, ordering) but not on the publisher or deadline;
//  * per node evaluation — a warm start. Each node keeps its arcs in the
//    order its previous evaluation sorted them (reset to arc order when a
//    solve starts); the next evaluation collects eligible neighbours in
//    that order and insertion-sorts the usable ones, so once the first
//    sweeps settle the order, sorting costs about one comparison per
//    entry. SendsBefore is a strict total order on a list (dr.h), so any
//    correct sort yields the sequence a sort from arc order gave, and Eq. 3
//    folds the same doubles in the same order.
// Each shared value is computed by exactly the arithmetic the per-destination
// recomputation used, and sweeps visit nodes in the same order, so the
// tables are bit-identical to solving every destination from scratch.
//
// Epochs. SolveEpoch groups the requests by subscriber and hands whole
// subscribers to ParallelFor's workers. A worker solves its subscriber's
// unconstrained table, then the subscriber's destinations in request
// order, in scratch of its own (budgets, sweep order, read bounds, warm
// order, list buffers); the sweep order and read bounds live only while
// that subscriber's destinations solve. A group reads only the view, its
// own requests and its own unconstrained solve, and writes only slots it
// owns, so the tables are the same for any worker count.
//
// Reuse. While it runs a subscriber's unconstrained fixed point, the solver
// records for every node the largest finite neighbour d the node reads, in
// any sweep and in the final list pass. A budget D_XS strictly above that
// value never excludes anything the node reads, so if that holds at every
// node other than S (or the node never read a reachable neighbour), the
// constrained run repeats the unconstrained one step for step: the
// destination takes the subscriber's <d,r>, lists, sweep count and
// convergence flag without sweeping, and has no fallback (the subscriber's
// list is its primary list). The rule must cover every iterate, not just
// the final values: a budget that excludes a neighbour only while the
// sweeps pass through a larger d changes the trajectory.
//
// Storage. A table (ListTable) holds one <d,r> per node and every node's
// sending list flat, as (neighbour, link) pairs in sending order; the Eq. 2
// values a list was sorted by are not stored but recomputed on demand
// (ViaEntryOf) by the same arithmetic. A solver keeps, per epoch, one
// table per subscriber and one per destination that solved, allocated by
// the worker that solves it, and hands out views (DestinationTables) into
// them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
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
  // Sending-list order; kTheorem1 is DCRD, the others are ablations.
  OrderingPolicy ordering = OrderingPolicy::kTheorem1;
};

// Every node's links toward its neighbours, each lifted through Eq. 1 once
// under one monitored view and m: the adjacency every evaluation of the
// update rule reads. Node x's arcs are arcs[begin[x] .. begin[x + 1]), in
// the graph's neighbour order; a link whose gamma^(m) is 0 never enters a
// list and gets no arc. Arc indices key per-arc state (the gossip's heard
// values, every node's warm order).
struct LiftedAdjacency {
  struct Arc {
    NodeId peer;
    LinkId link;
    LinkModel lifted;
  };

  LiftedAdjacency(const Graph& graph, const MonitoredView& view,
                  int max_transmissions);

  [[nodiscard]] std::size_t node_count() const { return begin.size() - 1; }

  std::vector<std::uint32_t> begin;  // node_count + 1 offsets
  std::vector<Arc> arcs;
  std::size_t max_degree = 0;  // the most arcs at one node
};

// One evaluation's buffers, reused across evaluations.
struct EvaluationScratch {
  std::vector<ViaEntry> sorted;           // the usable entries, in order
  std::vector<std::uint32_t> sorted_arc;  // their arcs
  std::vector<std::uint32_t> rest;        // the other arcs, in warm order
  bool unusable = false;  // some eligible entry is not usable

  // Capacity for any node of `adjacency`, so evaluations never allocate.
  void Reserve(const LiftedAdjacency& adjacency) {
    sorted.reserve(adjacency.max_degree);
    sorted_arc.reserve(adjacency.max_degree);
    rest.reserve(adjacency.max_degree);
  }
};

// The update rule's first half at node x under budget D_XS = `budget_us`.
// `neighbor_dr(a)` is the <d,r> x reads for its arc a. Collects x's
// eligible neighbours in x's warm order `warm` (its arcs, x's degree of
// them), lifts each across its arc (Eq. 2), insertion-sorts the usable ones
// into scratch.sorted under kPolicy — once the warm order has settled, each
// entry costs one comparison — and saves that order, usable arcs first, as
// x's warm order. Eq. 3 over scratch.sorted (CombineOrdered) is x's new
// <d,r>. Returns the largest d among x's reachable neighbours (-infinity
// when none).
template <OrderingPolicy kPolicy, typename NeighborDr>
double SortEligible(const LiftedAdjacency& adjacency, std::uint32_t x,
                    double budget_us, const NeighborDr& neighbor_dr,
                    std::uint32_t* warm, EvaluationScratch& scratch) {
  scratch.sorted.clear();
  scratch.sorted_arc.clear();
  scratch.rest.clear();
  bool unusable = false;
  double farthest = -kInfiniteDelay;
  const std::uint32_t degree = adjacency.begin[x + 1] - adjacency.begin[x];
  for (std::uint32_t k = 0; k < degree; ++k) {
    const std::uint32_t a = warm[k];
    const LiftedAdjacency::Arc& arc = adjacency.arcs[a];
    const DR& dr_i = neighbor_dr(a);
    bool sorts = false;
    if (dr_i.reachable()) {
      farthest = std::max(farthest, dr_i.d_us);
      if (dr_i.d_us < budget_us) {
        const ViaEntry entry =
            LiftAcrossLink(arc.peer, arc.link, arc.lifted, dr_i);
        sorts = IsUsable(entry);
        unusable = unusable || !sorts;
        if (sorts) {
          std::size_t j = scratch.sorted.size();
          scratch.sorted.push_back(entry);
          scratch.sorted_arc.push_back(a);
          for (; j > 0 && SendsBefore<kPolicy>(entry, scratch.sorted[j - 1]);
               --j) {
            scratch.sorted[j] = scratch.sorted[j - 1];
            scratch.sorted_arc[j] = scratch.sorted_arc[j - 1];
          }
          scratch.sorted[j] = entry;
          scratch.sorted_arc[j] = a;
        }
      }
    }
    if (!sorts) scratch.rest.push_back(a);
  }
  std::copy(scratch.sorted_arc.begin(), scratch.sorted_arc.end(), warm);
  std::copy(scratch.rest.begin(), scratch.rest.end(),
            warm + scratch.sorted_arc.size());
  scratch.unusable = unusable;
  return farthest;
}

// The update rule's second half: writes x's sending list from the
// SortEligible call just made with the same arguments — the usable entries
// in sending order, then any eligible but unusable ones in arc order — to
// `out`, at most x's degree of them, and returns the end of the list.
template <typename NeighborDr>
Neighbor* WriteList(const LiftedAdjacency& adjacency, std::uint32_t x,
                    double budget_us, const NeighborDr& neighbor_dr,
                    const EvaluationScratch& scratch, Neighbor* out) {
  for (const ViaEntry& entry : scratch.sorted) {
    *out++ = Neighbor{entry.neighbor, entry.link};
  }
  if (!scratch.unusable) return out;
  for (std::uint32_t a = adjacency.begin[x]; a < adjacency.begin[x + 1]; ++a) {
    const LiftedAdjacency::Arc& arc = adjacency.arcs[a];
    const DR& dr_i = neighbor_dr(a);
    if (!dr_i.reachable() || !(dr_i.d_us < budget_us) ||
        IsUsable(LiftAcrossLink(arc.peer, arc.link, arc.lifted, dr_i))) {
      continue;
    }
    *out++ = Neighbor{arc.peer, arc.link};
  }
  return out;
}

// How far a node's <d,r> moved from `previous` to `updated`: infinity when
// its reachability flipped, 0 when it stayed unreachable, else
// max(|delta d|, 10^6 * |delta r|) in microseconds, where a NaN part (a d
// that stayed infinite) counts as no move.
inline double DrChange(const DR& updated, const DR& previous) {
  if (updated.reachable() != previous.reachable()) return kInfiniteDelay;
  double change = 0.0;
  if (updated.reachable()) {
    change = std::max(change, std::abs(updated.d_us - previous.d_us));
    change = std::max(change, std::abs(updated.r - previous.r) * 1e6);
  }
  return change;
}

// Every node's <d,r> and sending list toward one subscriber, stored flat:
// node x's list is entries[begin[x] .. begin[x + 1]), in sending order. The
// subscriber's own entry is <0,1> with an empty list.
struct ListTable {
  std::vector<DR> dr;
  std::vector<std::uint32_t> begin;  // node_count + 1 offsets
  std::vector<Neighbor> entries;

  [[nodiscard]] std::span<const Neighbor> list(std::size_t x) const {
    return {entries.data() + begin[x], entries.data() + begin[x + 1]};
  }
};

// One node's routing state toward one subscriber, viewed in place.
struct NodeTables {
  DR dr;                               // <d_X, r_X>
  std::span<const Neighbor> primary;   // the sending list (Theorem-1 order)
  // Walked after primary under DcrdConfig::best_effort_fallback (see
  // above); empty when the destination reused its subscriber's solve.
  std::span<const Neighbor> fallback;
};

// A destination's NodeTables by node id, read from its primary table (the
// <d,r> and primary lists) and its fallback table (none: empty fallbacks).
// Builds nothing: indexing or iterating yields NodeTables by value.
class PerNodeTables {
 public:
  // Enough of an iterator for range-for.
  class Iterator {
   public:
    Iterator(const PerNodeTables* tables, std::size_t x)
        : tables_(tables), x_(x) {}
    NodeTables operator*() const { return (*tables_)[x_]; }
    Iterator& operator++() {
      ++x_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.x_ == b.x_;
    }

   private:
    const PerNodeTables* tables_;
    std::size_t x_;
  };

  PerNodeTables() = default;
  PerNodeTables(const ListTable* primary, const ListTable* fallback)
      : primary_(primary), fallback_(fallback) {}

  [[nodiscard]] std::size_t size() const {
    return primary_ == nullptr ? 0 : primary_->dr.size();
  }
  [[nodiscard]] NodeTables operator[](std::size_t x) const {
    return NodeTables{primary_->dr[x], primary_->list(x),
                      fallback_ == nullptr ? std::span<const Neighbor>()
                                           : fallback_->list(x)};
  }
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, size()); }
  [[nodiscard]] const ListTable& primary_table() const { return *primary_; }
  // The subscriber's table behind the fallback lists; nullptr when none.
  [[nodiscard]] const ListTable* fallback_table() const { return fallback_; }

 private:
  const ListTable* primary_ = nullptr;
  const ListTable* fallback_ = nullptr;
};

// All per-node state for one (publisher, subscriber, deadline) destination.
struct DestinationTables {
  NodeId subscriber;
  double deadline_us = 0.0;  // D_PS
  int sweeps_used = 0;
  bool converged = false;
  // Took the subscriber's unconstrained solve (see "Reuse" above): its
  // primary table is the subscriber's and it has no fallback.
  bool reused = false;
  PerNodeTables per_node;
};

// Per-node delay budgets D_XS = D_PS - dist(P, X) (Sec. III-C), where
// `publisher_dist_us[x]` is the monitored shortest delay from the publisher
// to x. The subscriber delivers to itself within any budget, so its own
// entry is floored at 1 us.
std::vector<double> DeadlineBudgets(
    double deadline_us, const std::vector<double>& publisher_dist_us,
    NodeId subscriber);

// Eq. 1 for one link under the monitored view: the m-transmission model
// every <d,r> computation lifts neighbours across.
LinkModel LiftedLink(const MonitoredView& view, LinkId link,
                     int max_transmissions);

// The Eq. 2 entry behind `hop` in one of `table`'s lists: the neighbour's
// <d,r> in that table lifted across the link, bit for bit the values the
// list was sorted by (given the view and m the table was solved with).
ViaEntry ViaEntryOf(const ListTable& table, Neighbor hop,
                    const MonitoredView& view, int max_transmissions);

// One destination of an epoch: tables toward `subscriber` under deadline
// D_PS = `deadline_us`. `publisher_dist_us[x]` is the monitored shortest
// delay from the publisher to x (infinity when unreachable); the caller
// computes it once per topic and shares it across that topic's requests.
struct DestinationRequest {
  NodeId subscriber;
  double deadline_us = 0.0;
  std::span<const double> publisher_dist_us;
};

// The <d,r> solver for one monitored view: construct it once per rebuild
// and solve the epoch's destinations in one SolveEpoch call. Holds
// references to `graph` and `view`, which must outlive it, and owns every
// table it hands out.
class DrSolver {
 public:
  DrSolver(const Graph& graph, const MonitoredView& view,
           const DrComputationConfig& config);
  // Views into the solver's tables would dangle in a copy.
  DrSolver(const DrSolver&) = delete;
  DrSolver& operator=(const DrSolver&) = delete;

  // Every request's tables, by request index. The requests are grouped by
  // subscriber in order of first appearance, and the groups fanned over up
  // to `workers` threads by ParallelFor (common/parallel_for.h), so inside
  // another fan-out the epoch runs inline. The tables do not depend on
  // `workers` (see "Epochs" above). Each publisher_dist_us span must stay
  // valid for the call; the returned views stay valid, and unchanged,
  // until the solver is destroyed.
  std::vector<DestinationTables> SolveEpoch(
      std::span<const DestinationRequest> requests, int workers);
  // One destination: an epoch of one request, on the calling thread.
  DestinationTables Solve(NodeId subscriber, double deadline_us,
                          std::span<const double> publisher_dist_us);

 private:
  struct Convergence {
    int sweeps_used = 0;
    bool converged = false;
  };
  // One worker's buffers, reused for every subscriber it claims.
  struct Scratch {
    std::vector<double> budget;         // D_XS of the destination solving
    std::vector<std::uint32_t> order;   // the subscriber's sweep order
    // Per node, the largest finite neighbour d read while solving the
    // subscriber's unconstrained table; -infinity when the node never read
    // a reachable neighbour.
    std::vector<double> farthest_read;
    // warm[begin[x] .. begin[x + 1]): x's arcs in the order its last
    // evaluation sorted them, usable entries first.
    std::vector<std::uint32_t> warm;
    EvaluationScratch evaluation;       // one node's entries and arcs
    std::vector<Neighbor> entries;      // a table's lists under build
  };

  // Solves the request group starting at request `first` on `scratch`:
  // the subscriber's unconstrained table into `shared`, then each request r
  // of the group into out[r], solving into solved[r] when it cannot reuse.
  void SolveGroup(std::span<const DestinationRequest> requests,
                  std::uint32_t first, Scratch& scratch, ListTable& shared,
                  ListTable* solved, DestinationTables* out) const;
  // Gauss–Seidel sweeps from scratch into `table.dr` under per-node
  // budgets (+infinity budgets give the unconstrained fixed point), then
  // the final list pass; raises scratch.farthest_read to every node's
  // largest read when `track_reads`.
  Convergence SolveTable(NodeId subscriber,
                         const std::vector<double>& budget_us,
                         Scratch& scratch, ListTable& table,
                         bool track_reads) const;
  template <OrderingPolicy kPolicy>
  Convergence SolveTableAs(NodeId subscriber,
                           const std::vector<double>& budget_us,
                           Scratch& scratch, ListTable& table,
                           bool track_reads) const;

  const Graph& graph_;
  const MonitoredView& view_;
  const DrComputationConfig config_;
  const LiftedAdjacency adjacency_;
  std::vector<double> unbounded_;         // +infinity budget per node
  // Each epoch's tables: one per subscriber group, then one slot per
  // request (filled when the request solved). An epoch's vector is never
  // resized, so views into it stay valid as epochs are added.
  std::vector<std::vector<ListTable>> epochs_;
  std::vector<Scratch> scratch_;  // one per worker of the widest epoch
  // Request grouping: the first request of each group, the next request
  // toward the same subscriber, and per node the group's last request so
  // far (kNone outside SolveEpoch).
  std::vector<std::uint32_t> group_first_;
  std::vector<std::uint32_t> next_request_;
  std::vector<std::uint32_t> last_request_;
};

// Monitored shortest delay from `source` to every node, in microseconds
// (infinity when unreachable) — the helper for both D_XS budgets and sweep
// ordering.
std::vector<double> MonitoredDistancesFrom(const Graph& graph,
                                           const MonitoredView& view,
                                           NodeId source);

}  // namespace dcrd
