#include "dcrd/dr_computation.h"

#include <algorithm>
#include <numeric>

#include "common/parallel_for.h"
#include "graph/shortest_path.h"

namespace dcrd {

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

// DeadlineBudgets into `budgets`, reusing its capacity.
void AssignBudgets(double deadline_us,
                   std::span<const double> publisher_dist_us,
                   NodeId subscriber, std::vector<double>& budgets) {
  DCRD_CHECK(subscriber.underlying() < publisher_dist_us.size());
  budgets.resize(publisher_dist_us.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    budgets[i] = deadline_us - publisher_dist_us[i];
  }
  budgets[subscriber.underlying()] =
      std::max(budgets[subscriber.underlying()], 1.0);
}

}  // namespace

std::vector<double> MonitoredDistancesFrom(const Graph& graph,
                                           const MonitoredView& view,
                                           NodeId source) {
  const PathTree tree = ShortestDelayTree(
      graph, source, [&view](LinkId link) { return view.alpha(link); });
  std::vector<double> distances(graph.node_count(), kInfiniteDelay);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    const NodeId node(static_cast<NodeId::underlying_type>(i));
    if (tree.Reachable(node)) {
      distances[i] = static_cast<double>(tree.distance[i].micros());
    }
  }
  return distances;
}

std::vector<double> DeadlineBudgets(
    double deadline_us, const std::vector<double>& publisher_dist_us,
    NodeId subscriber) {
  std::vector<double> budgets;
  AssignBudgets(deadline_us, publisher_dist_us, subscriber, budgets);
  return budgets;
}

LinkModel LiftedLink(const MonitoredView& view, LinkId link,
                     int max_transmissions) {
  return MTransmissionModel(
      LinkModel{static_cast<double>(view.alpha(link).micros()),
                view.gamma(link)},
      max_transmissions);
}

ViaEntry ViaEntryOf(const ListTable& table, Neighbor hop,
                    const MonitoredView& view, int max_transmissions) {
  return LiftAcrossLink(hop.peer, hop.link,
                        LiftedLink(view, hop.link, max_transmissions),
                        table.dr[hop.peer.underlying()]);
}

LiftedAdjacency::LiftedAdjacency(const Graph& graph, const MonitoredView& view,
                                 int max_transmissions) {
  // Eq. 1 once per link; both directions read the same lifted model.
  std::vector<LinkModel> lifted(graph.edge_count());
  for (std::size_t e = 0; e < lifted.size(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    lifted[e] = LiftedLink(view, link, max_transmissions);
  }
  begin.reserve(graph.node_count() + 1);
  for (std::size_t x = 0; x < graph.node_count(); ++x) {
    begin.push_back(static_cast<std::uint32_t>(arcs.size()));
    for (const Neighbor& nb :
         graph.neighbors(NodeId(static_cast<NodeId::underlying_type>(x)))) {
      const LinkModel& model = lifted[nb.link.underlying()];
      if (model.gamma > 0.0) arcs.push_back(Arc{nb.peer, nb.link, model});
    }
    max_degree = std::max<std::size_t>(max_degree, arcs.size() - begin.back());
  }
  begin.push_back(static_cast<std::uint32_t>(arcs.size()));
}

DrSolver::DrSolver(const Graph& graph, const MonitoredView& view,
                   const DrComputationConfig& config)
    : graph_(graph),
      view_(view),
      config_(config),
      adjacency_(graph, view, config.max_transmissions),
      unbounded_(graph.node_count(), kInfiniteDelay),
      last_request_(graph.node_count(), kNone) {}

template <OrderingPolicy kPolicy>
DrSolver::Convergence DrSolver::SolveTableAs(
    NodeId subscriber, const std::vector<double>& budget_us,
    Scratch& scratch, ListTable& table, bool track_reads) const {
  const std::uint32_t n = static_cast<std::uint32_t>(graph_.node_count());
  const std::uint32_t s = subscriber.underlying();
  std::vector<DR>& dr = table.dr;
  dr.assign(n, DR{});
  dr[s] = DR{0.0, 1.0};
  // Every solve starts from arc order, so its cost does not depend on
  // which solves its worker ran before.
  std::iota(scratch.warm.begin(), scratch.warm.end(), 0U);
  const LiftedAdjacency::Arc* const arcs = adjacency_.arcs.data();
  const auto neighbor_dr = [&dr, arcs](std::uint32_t a) -> const DR& {
    return dr[arcs[a].peer.underlying()];
  };
  const auto read = [&](std::uint32_t x) {
    const double farthest = SortEligible<kPolicy>(
        adjacency_, x, budget_us[x], neighbor_dr,
        scratch.warm.data() + adjacency_.begin[x], scratch.evaluation);
    if (track_reads) {
      scratch.farthest_read[x] = std::max(scratch.farthest_read[x], farthest);
    }
  };

  Convergence result;
  for (; result.sweeps_used < config_.max_sweeps && !result.converged;
       ++result.sweeps_used) {
    double max_delta = 0.0;
    for (std::uint32_t idx : scratch.order) {
      if (idx == s) continue;
      read(idx);
      const DR updated = CombineOrdered(scratch.evaluation.sorted);
      max_delta = std::max(max_delta, DrChange(updated, dr[idx]));
      dr[idx] = updated;
    }
    result.converged = max_delta <= config_.tolerance_us;
  }

  // The list pass, stored flat at exact size.
  Neighbor* const lists = scratch.entries.data();
  Neighbor* end = lists;
  table.begin.reserve(n + 1);
  for (std::uint32_t x = 0; x < n; ++x) {
    table.begin.push_back(static_cast<std::uint32_t>(end - lists));
    if (x == s) continue;
    read(x);
    end = WriteList(adjacency_, x, budget_us[x], neighbor_dr,
                    scratch.evaluation, end);
  }
  table.begin.push_back(static_cast<std::uint32_t>(end - lists));
  table.entries.assign(lists, end);
  return result;
}

DrSolver::Convergence DrSolver::SolveTable(
    NodeId subscriber, const std::vector<double>& budget_us,
    Scratch& scratch, ListTable& table, bool track_reads) const {
  switch (config_.ordering) {
    case OrderingPolicy::kTheorem1:
      return SolveTableAs<OrderingPolicy::kTheorem1>(
          subscriber, budget_us, scratch, table, track_reads);
    case OrderingPolicy::kDelayFirst:
      return SolveTableAs<OrderingPolicy::kDelayFirst>(
          subscriber, budget_us, scratch, table, track_reads);
    case OrderingPolicy::kReliabilityFirst:
      return SolveTableAs<OrderingPolicy::kReliabilityFirst>(
          subscriber, budget_us, scratch, table, track_reads);
  }
  DCRD_CHECK(false) << "unknown ordering policy";
  return {};
}

void DrSolver::SolveGroup(std::span<const DestinationRequest> requests,
                          std::uint32_t first, Scratch& scratch,
                          ListTable& shared, ListTable* solved,
                          DestinationTables* out) const {
  const NodeId subscriber = requests[first].subscriber;
  // Sweep order: nodes by monitored distance to the subscriber, closest
  // first, so each sweep propagates information one "ring" further out.
  const std::vector<double> to_subscriber =
      MonitoredDistancesFrom(graph_, view_, subscriber);
  std::iota(scratch.order.begin(), scratch.order.end(), 0U);
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return to_subscriber[a] < to_subscriber[b];
                   });
  // The unconstrained fixed point: the fallback lists, and every
  // destination whose budgets never bind. Budget starvation makes a node
  // advertise r = 0, which would otherwise make it invisible to its
  // neighbours' fallback lists too — the unconstrained values restore "can
  // this neighbour deliver at all, however late".
  std::fill(scratch.farthest_read.begin(), scratch.farthest_read.end(),
            -kInfiniteDelay);
  const Convergence unconstrained =
      SolveTable(subscriber, unbounded_, scratch, shared, true);

  for (std::uint32_t r = first; r != kNone; r = next_request_[r]) {
    const DestinationRequest& request = requests[r];
    AssignBudgets(request.deadline_us, request.publisher_dist_us, subscriber,
                  scratch.budget);
    DestinationTables& tables = out[r];
    tables.subscriber = subscriber;
    tables.deadline_us = request.deadline_us;
    tables.reused = true;
    for (std::size_t i = 0; i < scratch.budget.size() && tables.reused; ++i) {
      const double farthest = scratch.farthest_read[i];
      tables.reused = i == subscriber.underlying() ||
                      farthest == -kInfiniteDelay ||
                      scratch.budget[i] > farthest;
    }
    if (tables.reused) {
      tables.sweeps_used = unconstrained.sweeps_used;
      tables.converged = unconstrained.converged;
      tables.per_node = PerNodeTables(&shared, nullptr);
      continue;
    }
    // Budget-constrained fixed point: the paper's <d,r> and sending lists.
    const Convergence constrained =
        SolveTable(subscriber, scratch.budget, scratch, solved[r], false);
    tables.sweeps_used = constrained.sweeps_used;
    tables.converged = constrained.converged;
    tables.per_node = PerNodeTables(&solved[r], &shared);
  }
}

std::vector<DestinationTables> DrSolver::SolveEpoch(
    std::span<const DestinationRequest> requests, int workers) {
  const std::size_t n = graph_.node_count();
  // Group the requests by subscriber in order of first appearance.
  group_first_.clear();
  next_request_.assign(requests.size(), kNone);
  for (std::uint32_t r = 0; r < requests.size(); ++r) {
    const std::uint32_t s = requests[r].subscriber.underlying();
    DCRD_CHECK(s < n);
    DCRD_CHECK(requests[r].publisher_dist_us.size() == n);
    if (last_request_[s] == kNone) {
      group_first_.push_back(r);
    } else {
      next_request_[last_request_[s]] = r;
    }
    last_request_[s] = r;
  }
  for (std::uint32_t first : group_first_) {
    last_request_[requests[first].subscriber.underlying()] = kNone;
  }

  const std::size_t groups = group_first_.size();
  const std::size_t worker_count = ParallelWorkers(groups, workers);
  const std::size_t sized = scratch_.size();
  if (sized < worker_count) scratch_.resize(worker_count);
  for (std::size_t w = sized; w < worker_count; ++w) {
    Scratch& scratch = scratch_[w];
    scratch.budget.reserve(n);
    scratch.order.resize(n);
    scratch.farthest_read.resize(n);
    scratch.warm.resize(adjacency_.arcs.size());
    scratch.evaluation.Reserve(adjacency_);
    scratch.entries.resize(adjacency_.arcs.size());
  }
  std::vector<ListTable>& tables =
      epochs_.emplace_back(groups + requests.size());
  std::vector<DestinationTables> out(requests.size());
  ParallelFor(groups, workers, [&](std::size_t g, std::size_t w) {
    SolveGroup(requests, group_first_[g], scratch_[w], tables[g],
               tables.data() + groups, out.data());
  });
  return out;
}

DestinationTables DrSolver::Solve(NodeId subscriber, double deadline_us,
                                  std::span<const double> publisher_dist_us) {
  const DestinationRequest request{subscriber, deadline_us,
                                   publisher_dist_us};
  return std::move(SolveEpoch({&request, 1}, 1).front());
}

}  // namespace dcrd
