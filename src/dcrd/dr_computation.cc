#include "dcrd/dr_computation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/shortest_path.h"

namespace dcrd {

namespace {

// DeadlineBudgets into `budgets`, reusing its capacity.
void AssignBudgets(double deadline_us,
                   const std::vector<double>& publisher_dist_us,
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
      subscribers_(graph.node_count()) {
  // Eq. 1 once per link; both directions read the same lifted model.
  std::vector<LinkModel> lifted(graph.edge_count());
  for (std::size_t e = 0; e < lifted.size(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    lifted[e] = LiftedLink(view, link, config.max_transmissions);
  }
  std::size_t max_degree = 0;
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
    max_degree = std::max(max_degree, neighbors.size());
  }
  arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  budget_.reserve(graph.node_count());
  eligible_.reserve(max_degree);
  entries_.reserve(arcs_.size());
}

// X's eligible entries toward the subscriber from the current dr estimates
// — neighbours with d_i < budget — lifted across the link (Eq. 2) and
// sorted under the configured ordering policy (Theorem 1 for DCRD proper).
double DrSolver::CollectEligible(const std::vector<DR>& dr, std::uint32_t x,
                                 double budget_us) {
  eligible_.clear();
  double farthest = -kInfiniteDelay;
  for (std::uint32_t a = arc_begin_[x]; a < arc_begin_[x + 1]; ++a) {
    const Arc& arc = arcs_[a];
    const DR& dr_i = dr[arc.peer.underlying()];
    if (!dr_i.reachable()) continue;
    farthest = std::max(farthest, dr_i.d_us);
    if (!(dr_i.d_us < budget_us)) continue;
    eligible_.push_back(LiftAcrossLink(arc.peer, arc.link, arc.lifted, dr_i));
  }
  SortByPolicy(eligible_, config_.ordering);
  return farthest;
}

// Runs the synchronous Gauss–Seidel sweeps to the <d,r> fixed point under
// per-node delay budgets (+infinity budgets give the unconstrained fixed
// point).
DrSolver::Convergence DrSolver::SolveFixedPoint(
    NodeId subscriber, const std::vector<double>& budget_us,
    const std::vector<std::uint32_t>& order, std::vector<DR>& dr,
    std::vector<double>* farthest_read) {
  dr.assign(graph_.node_count(), DR{});
  dr[subscriber.underlying()] = DR{0.0, 1.0};

  Convergence result;
  for (; result.sweeps_used < config_.max_sweeps && !result.converged;
       ++result.sweeps_used) {
    double max_delta = 0.0;
    for (std::uint32_t idx : order) {
      if (idx == subscriber.underlying()) continue;
      const double farthest = CollectEligible(dr, idx, budget_us[idx]);
      if (farthest_read != nullptr) {
        (*farthest_read)[idx] = std::max((*farthest_read)[idx], farthest);
      }
      const DR updated = CombineOrdered(eligible_);
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
  return result;
}

void DrSolver::BuildLists(NodeId subscriber,
                          const std::vector<double>& budget_us,
                          ListTable& table,
                          std::vector<double>* farthest_read) {
  const std::uint32_t n = static_cast<std::uint32_t>(graph_.node_count());
  entries_.clear();
  table.begin.reserve(n + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    table.begin.push_back(static_cast<std::uint32_t>(entries_.size()));
    if (i == subscriber.underlying()) continue;
    const double farthest = CollectEligible(table.dr, i, budget_us[i]);
    if (farthest_read != nullptr) {
      (*farthest_read)[i] = std::max((*farthest_read)[i], farthest);
    }
    for (const ViaEntry& entry : eligible_) {
      entries_.push_back(Neighbor{entry.neighbor, entry.link});
    }
  }
  table.begin.push_back(static_cast<std::uint32_t>(entries_.size()));
  table.entries.assign(entries_.begin(), entries_.end());
}

DrSolver::SubscriberState& DrSolver::PrepareSubscriber(NodeId subscriber) {
  SubscriberState& state = subscribers_[subscriber.underlying()];
  if (state.ready) return state;
  state.ready = true;
  // Sweep order: nodes by monitored distance to the subscriber, closest
  // first, so each sweep propagates information one "ring" further out.
  const std::vector<double> to_subscriber =
      MonitoredDistancesFrom(graph_, view_, subscriber);
  state.order.resize(graph_.node_count());
  std::iota(state.order.begin(), state.order.end(), 0U);
  std::stable_sort(state.order.begin(), state.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return to_subscriber[a] < to_subscriber[b];
                   });
  // The unconstrained fixed point: the fallback lists, and every
  // destination whose budgets never bind. Budget starvation makes a node
  // advertise r = 0, which would otherwise make it invisible to its
  // neighbours' fallback lists too — the unconstrained values restore "can
  // this neighbour deliver at all, however late".
  state.farthest_read.assign(graph_.node_count(), -kInfiniteDelay);
  state.convergence = SolveFixedPoint(subscriber, unbounded_, state.order,
                                      state.table.dr, &state.farthest_read);
  BuildLists(subscriber, unbounded_, state.table, &state.farthest_read);
  return state;
}

DestinationTables DrSolver::Solve(
    NodeId subscriber, double deadline_us,
    const std::vector<double>& publisher_dist_us) {
  const std::size_t n = graph_.node_count();
  DCRD_CHECK(subscriber.underlying() < n);
  DCRD_CHECK(publisher_dist_us.size() == n);
  const SubscriberState& shared = PrepareSubscriber(subscriber);
  AssignBudgets(deadline_us, publisher_dist_us, subscriber, budget_);

  DestinationTables tables;
  tables.subscriber = subscriber;
  tables.deadline_us = deadline_us;
  tables.reused = true;
  for (std::size_t i = 0; i < n && tables.reused; ++i) {
    const double farthest = shared.farthest_read[i];
    tables.reused = i == subscriber.underlying() ||
                    farthest == -kInfiniteDelay || budget_[i] > farthest;
  }
  if (tables.reused) {
    tables.sweeps_used = shared.convergence.sweeps_used;
    tables.converged = shared.convergence.converged;
    tables.per_node = PerNodeTables(&shared.table, nullptr);
    return tables;
  }

  // Budget-constrained fixed point: the paper's <d,r> and sending lists.
  ListTable& table = solved_.emplace_back();
  const Convergence constrained =
      SolveFixedPoint(subscriber, budget_, shared.order, table.dr, nullptr);
  tables.sweeps_used = constrained.sweeps_used;
  tables.converged = constrained.converged;
  BuildLists(subscriber, budget_, table, nullptr);
  tables.per_node = PerNodeTables(
      &table, config_.build_fallback ? &shared.table : nullptr);
  return tables;
}

}  // namespace dcrd
