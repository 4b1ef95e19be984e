#include "dcrd/dr_computation.h"

#include <algorithm>
#include <cmath>
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

DrSolver::DrSolver(const Graph& graph, const MonitoredView& view,
                   const DrComputationConfig& config)
    : graph_(graph),
      view_(view),
      config_(config),
      unbounded_(graph.node_count(), kInfiniteDelay),
      last_request_(graph.node_count(), kNone) {
  // Eq. 1 once per link; both directions read the same lifted model.
  std::vector<LinkModel> lifted(graph.edge_count());
  for (std::size_t e = 0; e < lifted.size(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    lifted[e] = LiftedLink(view, link, config.max_transmissions);
  }
  arc_begin_.reserve(graph.node_count() + 1);
  for (std::size_t x = 0; x < graph.node_count(); ++x) {
    arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    const auto& neighbors =
        graph.neighbors(NodeId(static_cast<NodeId::underlying_type>(x)));
    for (const Neighbor& nb : neighbors) {
      const LinkModel& model = lifted[nb.link.underlying()];
      // A link that never delivers never enters a list.
      if (model.gamma > 0.0) arcs_.push_back(Arc{nb.peer, nb.link, model});
    }
    max_degree_ = std::max(max_degree_, neighbors.size());
  }
  arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
}

template <OrderingPolicy kPolicy>
double DrSolver::SortEligible(const std::vector<DR>& dr, std::uint32_t x,
                              double budget_us, Scratch& scratch,
                              bool& unusable) const {
  scratch.sorted.clear();
  scratch.sorted_arc.clear();
  scratch.rest.clear();
  unusable = false;
  double farthest = -kInfiniteDelay;
  std::uint32_t* const warm = scratch.warm.data() + arc_begin_[x];
  const std::uint32_t degree = arc_begin_[x + 1] - arc_begin_[x];
  for (std::uint32_t k = 0; k < degree; ++k) {
    const std::uint32_t a = warm[k];
    const Arc& arc = arcs_[a];
    const DR& dr_i = dr[arc.peer.underlying()];
    bool sorts = false;
    if (dr_i.reachable()) {
      farthest = std::max(farthest, dr_i.d_us);
      if (dr_i.d_us < budget_us) {
        const ViaEntry entry =
            LiftAcrossLink(arc.peer, arc.link, arc.lifted, dr_i);
        sorts = IsUsable(entry);
        unusable = unusable || !sorts;
        if (sorts) {
          // Insertion: once the warm order has settled, each entry costs
          // one comparison.
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
  return farthest;
}

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
  bool unusable = false;
  const auto read = [&](std::uint32_t x) {
    const double farthest =
        SortEligible<kPolicy>(dr, x, budget_us[x], scratch, unusable);
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
      const DR updated = CombineOrdered(scratch.sorted);
      const DR previous = dr[idx];
      if (updated.reachable() != previous.reachable()) {
        max_delta = kInfiniteDelay;
      } else if (updated.reachable()) {
        max_delta = std::max(max_delta, std::abs(updated.d_us - previous.d_us));
        max_delta =
            std::max(max_delta, std::abs(updated.r - previous.r) * 1e6);
      }
      dr[idx] = updated;
    }
    result.converged = max_delta <= config_.tolerance_us;
  }

  // The list pass: usable entries in policy order, then any eligible but
  // unusable ones in arc order, stored flat at exact size.
  scratch.entries.clear();
  table.begin.reserve(n + 1);
  for (std::uint32_t x = 0; x < n; ++x) {
    table.begin.push_back(static_cast<std::uint32_t>(scratch.entries.size()));
    if (x == s) continue;
    read(x);
    for (const ViaEntry& entry : scratch.sorted) {
      scratch.entries.push_back(Neighbor{entry.neighbor, entry.link});
    }
    if (!unusable) continue;
    for (std::uint32_t a = arc_begin_[x]; a < arc_begin_[x + 1]; ++a) {
      const Arc& arc = arcs_[a];
      const DR& dr_i = dr[arc.peer.underlying()];
      if (!dr_i.reachable() || !(dr_i.d_us < budget_us[x]) ||
          IsUsable(LiftAcrossLink(arc.peer, arc.link, arc.lifted, dr_i))) {
        continue;
      }
      scratch.entries.push_back(Neighbor{arc.peer, arc.link});
    }
  }
  table.begin.push_back(static_cast<std::uint32_t>(scratch.entries.size()));
  table.entries.assign(scratch.entries.begin(), scratch.entries.end());
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
    tables.per_node = PerNodeTables(
        &solved[r], config_.build_fallback ? &shared : nullptr);
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
    scratch.warm.resize(arcs_.size());
    scratch.sorted.reserve(max_degree_);
    scratch.sorted_arc.reserve(max_degree_);
    scratch.rest.reserve(max_degree_);
    scratch.entries.reserve(arcs_.size());
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
