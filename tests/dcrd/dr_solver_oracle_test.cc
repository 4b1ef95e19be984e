// DrSolver against the solver it replaced, bit for bit.
//
// The `oracle` namespace below is the earlier per-destination solver,
// copied verbatim but for the sort's name and its own table types: every
// sweep re-lifts each link through Eq. 1, builds a fresh list of Eq. 2
// entries and orders it with a stable partition plus a stable sort, every
// destination re-runs its own sweep order and unconstrained fixed point,
// and its fallback list is the unconstrained list minus the primary
// neighbours. DrSolver shares that work per rebuild and per subscriber,
// reuses the subscriber's unconstrained solve for destinations whose
// budgets never bind, and stores lists as bare (neighbour, link) pairs;
// these tests require every double of the <d,r> values (memcmp), every
// list's neighbour and link order, the Eq. 2 values recomputed from the
// tables, and the convergence bookkeeping to match the oracle on random
// overlays across the solver's whole configuration space, including
// destinations that stop at the sweep cap, with the epoch solved on one,
// two and four workers. The update rule the solver shares with the gossip
// (SortEligible + WriteList) is also checked on its own against the
// oracle's collection, from arbitrary warm orders.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcrd/dr_computation.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"

namespace dcrd {
namespace {

namespace oracle {

template <typename Less>
void SortUsable(std::vector<ViaEntry>& entries, Less less) {
  const auto usable_end = std::stable_partition(
      entries.begin(), entries.end(), [](const ViaEntry& e) {
        return e.r_via > 0.0 && e.d_via_us < kInfiniteDelay;
      });
  std::stable_sort(entries.begin(), usable_end, less);
}

void StableSortByPolicy(std::vector<ViaEntry>& entries,
                        OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kTheorem1:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        const double lhs = a.d_via_us * b.r_via;
        const double rhs = b.d_via_us * a.r_via;
        if (lhs != rhs) return lhs < rhs;
        return a.neighbor < b.neighbor;
      });
      return;
    case OrderingPolicy::kDelayFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.d_via_us != b.d_via_us) return a.d_via_us < b.d_via_us;
        return a.neighbor < b.neighbor;
      });
      return;
    case OrderingPolicy::kReliabilityFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.r_via != b.r_via) return a.r_via > b.r_via;
        return a.neighbor < b.neighbor;
      });
      return;
  }
}

std::vector<ViaEntry> CollectEligible(const Graph& graph,
                                      const MonitoredView& view,
                                      const std::vector<DR>& dr, NodeId x,
                                      double budget_us, int m,
                                      OrderingPolicy ordering) {
  std::vector<ViaEntry> eligible;
  for (const Neighbor& nb : graph.neighbors(x)) {
    const DR& dr_i = dr[nb.peer.underlying()];
    if (!dr_i.reachable() || !(dr_i.d_us < budget_us)) continue;
    const LinkModel single{static_cast<double>(view.alpha(nb.link).micros()),
                           view.gamma(nb.link)};
    const LinkModel lifted = MTransmissionModel(single, m);
    if (lifted.gamma <= 0.0) continue;
    eligible.push_back(LiftAcrossLink(nb.peer, nb.link, lifted, dr_i));
  }
  StableSortByPolicy(eligible, ordering);
  return eligible;
}

struct NodeTables {
  DR dr;
  std::vector<ViaEntry> primary;
  std::vector<ViaEntry> fallback;
};

struct DestinationTables {
  NodeId subscriber;
  double deadline_us = 0.0;
  std::vector<double> budget_us;
  std::vector<NodeTables> per_node;
  int sweeps_used = 0;
  bool converged = false;
};

struct FixedPoint {
  std::vector<DR> dr;
  int sweeps_used = 0;
  bool converged = false;
};

FixedPoint SolveFixedPoint(const Graph& graph, const MonitoredView& view,
                           NodeId subscriber,
                           const std::vector<double>& budget_us,
                           const std::vector<std::uint32_t>& order,
                           const DrComputationConfig& config) {
  FixedPoint result;
  result.dr.assign(graph.node_count(), DR{});
  result.dr[subscriber.underlying()] = DR{0.0, 1.0};

  for (; result.sweeps_used < config.max_sweeps && !result.converged;
       ++result.sweeps_used) {
    double max_delta = 0.0;
    for (std::uint32_t idx : order) {
      const NodeId x(idx);
      if (x == subscriber) continue;
      const std::vector<ViaEntry> eligible =
          CollectEligible(graph, view, result.dr, x, budget_us[idx],
                          config.max_transmissions, config.ordering);
      const DR updated = CombineOrdered(eligible);
      const DR previous = result.dr[idx];
      if (updated.reachable() != previous.reachable()) {
        max_delta = kInfiniteDelay;
      } else if (updated.reachable()) {
        max_delta = std::max(max_delta, std::abs(updated.d_us - previous.d_us));
        max_delta =
            std::max(max_delta, std::abs(updated.r - previous.r) * 1e6);
      }
      result.dr[idx] = updated;
    }
    result.converged = max_delta <= config.tolerance_us;
  }
  return result;
}

DestinationTables ComputeDestinationTables(
    const Graph& graph, const MonitoredView& view, NodeId subscriber,
    double deadline_us, const std::vector<double>& publisher_dist_us,
    const DrComputationConfig& config) {
  const std::size_t n = graph.node_count();

  DestinationTables tables;
  tables.subscriber = subscriber;
  tables.deadline_us = deadline_us;
  tables.budget_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables.budget_us[i] = deadline_us - publisher_dist_us[i];
  }
  tables.budget_us[subscriber.underlying()] =
      std::max(tables.budget_us[subscriber.underlying()], 1.0);

  const std::vector<double> to_subscriber =
      MonitoredDistancesFrom(graph, view, subscriber);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return to_subscriber[a] < to_subscriber[b];
                   });

  const FixedPoint constrained =
      SolveFixedPoint(graph, view, subscriber, tables.budget_us, order, config);
  tables.sweeps_used = constrained.sweeps_used;
  tables.converged = constrained.converged;

  const std::vector<double> no_budget(n, kInfiniteDelay);
  const FixedPoint unconstrained =
      SolveFixedPoint(graph, view, subscriber, no_budget, order, config);

  tables.per_node.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId x(static_cast<NodeId::underlying_type>(i));
    NodeTables& node = tables.per_node[i];
    if (x == subscriber) {
      node.dr = DR{0.0, 1.0};
      continue;
    }
    node.dr = constrained.dr[i];
    node.primary =
        CollectEligible(graph, view, constrained.dr, x, tables.budget_us[i],
                        config.max_transmissions, config.ordering);
    std::vector<ViaEntry> fallback = CollectEligible(
        graph, view, unconstrained.dr, x, kInfiniteDelay,
        config.max_transmissions, config.ordering);
    std::erase_if(fallback, [&](const ViaEntry& entry) {
      return std::any_of(node.primary.begin(), node.primary.end(),
                         [&](const ViaEntry& p) {
                           return p.neighbor == entry.neighbor;
                         });
    });
    node.fallback = std::move(fallback);
  }
  return tables;
}

}  // namespace oracle

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Empty when `got` equals `want` bit for bit, else the first difference.
std::string EntriesDiff(const char* which, const std::vector<ViaEntry>& want,
                        const std::vector<ViaEntry>& got) {
  if (want.size() != got.size()) {
    return std::string(which) + " size " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (want[k].neighbor != got[k].neighbor || want[k].link != got[k].link ||
        !SameBits(want[k].d_via_us, got[k].d_via_us) ||
        !SameBits(want[k].r_via, got[k].r_via)) {
      return std::string(which) + " entry " + std::to_string(k);
    }
  }
  return "";
}

// EntriesDiff for `got`, a list of `table`, with its Eq. 2 values
// recomputed.
std::string ListDiff(const char* which, const std::vector<ViaEntry>& want,
                     const std::vector<Neighbor>& got, const ListTable& table,
                     const MonitoredView& view, int m) {
  std::vector<ViaEntry> entries;
  for (const Neighbor& hop : got) {
    entries.push_back(ViaEntryOf(table, hop, view, m));
  }
  return EntriesDiff(which, want, entries);
}

std::string TablesDiff(const oracle::DestinationTables& want,
                       const DestinationTables& got,
                       const MonitoredView& view,
                       const DrComputationConfig& config) {
  if (want.subscriber != got.subscriber) return "subscriber";
  if (!SameBits(want.deadline_us, got.deadline_us)) return "deadline";
  if (want.sweeps_used != got.sweeps_used) {
    return "sweeps_used " + std::to_string(got.sweeps_used) +
           " != " + std::to_string(want.sweeps_used);
  }
  if (want.converged != got.converged) return "converged";
  if (want.per_node.size() != got.per_node.size()) return "per_node size";
  const ListTable& table = got.per_node.primary_table();
  // The subscriber's unconstrained table: a reused destination's own, a
  // solved one's fallback.
  const ListTable* subscriber_table =
      got.reused ? &table : got.per_node.fallback_table();
  if (got.reused && got.per_node.fallback_table() != nullptr) {
    return "reused destination has a fallback table";
  }
  if (subscriber_table == nullptr) return "fallback table";
  const int m = config.max_transmissions;
  for (std::size_t i = 0; i < want.per_node.size(); ++i) {
    const oracle::NodeTables& w = want.per_node[i];
    const NodeTables g = got.per_node[i];
    const std::vector<Neighbor> primary(g.primary.begin(), g.primary.end());
    std::string diff;
    if (!SameBits(w.dr.d_us, g.dr.d_us) || !SameBits(w.dr.r, g.dr.r)) {
      diff = "dr";
    } else {
      diff = ListDiff("primary", w.primary, primary, table, view, m);
    }
    if (diff.empty() && got.reused && !g.fallback.empty()) {
      diff = "fallback not empty";
    }
    if (diff.empty()) {
      // The oracle's fallback: the subscriber's list minus the primary
      // neighbours.
      std::vector<Neighbor> rest;
      for (const Neighbor& hop : subscriber_table->list(i)) {
        if (std::none_of(primary.begin(), primary.end(),
                         [&](const Neighbor& p) {
                           return p.peer == hop.peer;
                         })) {
          rest.push_back(hop);
        }
      }
      diff = ListDiff("fallback", w.fallback, rest, *subscriber_table, view,
                      m);
    }
    if (!diff.empty()) return "node " + std::to_string(i) + ": " + diff;
  }
  return "";
}

// Empty when DeadlineBudgets equals the oracle's budgets bit for bit.
std::string BudgetsDiff(const oracle::DestinationTables& want,
                        const std::vector<double>& publisher_dist_us) {
  const std::vector<double> got = DeadlineBudgets(
      want.deadline_us, publisher_dist_us, want.subscriber);
  if (want.budget_us.size() != got.size()) return "budget size";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(want.budget_us[i], got[i])) {
      return "budget of node " + std::to_string(i);
    }
  }
  return "";
}

// One random overlay's destinations, solved in the router's topic-major
// order by one SolveEpoch call per epoch, configuration and worker count,
// each checked against a from-scratch oracle solve.
struct OracleTally {
  int destinations = 0;
  int capped = 0;  // stopped unconverged at max_sweeps
  int reused = 0;  // took the subscriber's unconstrained solve
};

void CheckOverlay(std::size_t nodes, std::size_t degree, double pf,
                  std::uint64_t seed, OracleTally& tally) {
  Rng rng(seed);
  Rng topo_rng = rng.Fork("topology");
  const Graph graph = RandomConnected(nodes, degree, topo_rng);
  const FailureSchedule failures(rng.Fork("failures")(), pf);
  LinkMonitorConfig monitor_config;
  monitor_config.loss_rate = 1e-3;
  LinkMonitor monitor(graph, failures, monitor_config, rng.Fork("probes"));

  // Two topics of three subscribers, two of them shared, so an epoch has
  // four subscriber groups for its workers and each solver reuses a
  // shared subscriber's sweep order and unconstrained solve across topics.
  Rng pick = rng.Fork("destinations");
  const auto node_at = [&](std::uint64_t draw) {
    return NodeId(static_cast<NodeId::underlying_type>(draw));
  };
  const NodeId publishers[2] = {node_at(pick.NextBounded(nodes)),
                                node_at(pick.NextBounded(nodes))};
  NodeId subscribers[4];
  for (NodeId& subscriber : subscribers) {
    subscriber = node_at(pick.NextBounded(nodes));
  }
  const NodeId topic_subscribers[2][3] = {
      {subscribers[0], subscribers[1], subscribers[2]},
      {subscribers[0], subscribers[1], subscribers[3]}};
  const double qos_factors[3] = {1.5, 3.0, 6.0};

  for (int epoch = 0; epoch < 3; ++epoch) {
    monitor.MeasureAt(SimTime::Zero() + SimDuration::Seconds(300 * epoch));
    const MonitoredView& view = monitor.view();
    std::vector<double> publisher_dist[2];
    std::vector<DestinationRequest> requests;
    for (int t = 0; t < 2; ++t) {
      publisher_dist[t] = MonitoredDistancesFrom(graph, view, publishers[t]);
      for (int s = 0; s < 3; ++s) {
        const NodeId subscriber = topic_subscribers[t][s];
        requests.push_back(DestinationRequest{
            subscriber,
            qos_factors[(epoch + t + s) % 3] *
                publisher_dist[t][subscriber.underlying()],
            publisher_dist[t]});
      }
    }
    for (int m = 1; m <= 3; ++m) {
      for (const OrderingPolicy ordering :
           {OrderingPolicy::kTheorem1, OrderingPolicy::kDelayFirst,
            OrderingPolicy::kReliabilityFirst}) {
        DrComputationConfig config;
        config.max_transmissions = m;
        config.ordering = ordering;
        std::vector<oracle::DestinationTables> want;
        for (std::size_t r = 0; r < requests.size(); ++r) {
          const int t = static_cast<int>(r / 3);
          want.push_back(oracle::ComputeDestinationTables(
              graph, view, requests[r].subscriber, requests[r].deadline_us,
              publisher_dist[t], config));
        }
        for (const int workers : {1, 2, 4}) {
          DrSolver solver(graph, view, config);
          const std::vector<DestinationTables> got =
              solver.SolveEpoch(requests, workers);
          ASSERT_EQ(got.size(), requests.size());
          for (std::size_t r = 0; r < requests.size(); ++r) {
            const int t = static_cast<int>(r / 3);
            std::string diff = BudgetsDiff(want[r], publisher_dist[t]);
            if (diff.empty()) {
              diff = TablesDiff(want[r], got[r], view, config);
            }
            ASSERT_EQ(diff, "")
                << "N=" << nodes << " degree=" << degree << " pf=" << pf
                << " epoch=" << epoch << " m=" << m
                << " ordering=" << static_cast<int>(ordering)
                << " workers=" << workers << " request=" << r
                << " subscriber=" << requests[r].subscriber
                << " reused=" << got[r].reused;
            ++tally.destinations;
            if (got[r].reused) ++tally.reused;
            if (!got[r].converged &&
                got[r].sweeps_used == config.max_sweeps) {
              ++tally.capped;
            }
          }
        }
      }
    }
  }
}

TEST(DrSolverOracleTest, MatchesPerDestinationSolverBitForBit) {
  OracleTally tally;
  std::uint64_t seed = 1;
  for (const std::size_t nodes : {20U, 40U, 100U}) {
    for (const std::size_t degree : {4U, 5U, 8U}) {
      for (const double pf : {0.0, 0.06, 0.1}) {
        CheckOverlay(nodes, degree, pf, seed++, tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  // 27 overlays x 3 epochs x 9 configurations x 6 destinations, each at
  // 3 worker counts.
  EXPECT_EQ(tally.destinations, 27 * 3 * 9 * 6 * 3);
  // The sweep cap path must be covered, not just converged solves, and so
  // must both reused and solved destinations.
  EXPECT_GT(tally.capped, 0);
  EXPECT_GT(tally.reused, 0);
  EXPECT_LT(tally.reused, tally.destinations);
}

TEST(DrSolverOracleTest, SingleDestinationSolveMatchesOracle) {
  // One destination from a fresh solver, as a single-destination caller
  // (deadline_explorer) solves it, is the same solve.
  Rng rng(77);
  const Graph graph = RandomConnected(30, 5, rng);
  const FailureSchedule failures(9, 0.06);
  LinkMonitor monitor(graph, failures, LinkMonitorConfig{}, Rng(4));
  monitor.MeasureAt(SimTime::Zero());
  const auto dist = MonitoredDistancesFrom(graph, monitor.view(), NodeId(0));
  const DrComputationConfig config;
  for (std::uint32_t s = 0; s < 30; ++s) {
    const NodeId subscriber(s);
    const double deadline_us = 3.0 * dist[s];
    DrSolver solver(graph, monitor.view(), config);
    EXPECT_EQ(TablesDiff(oracle::ComputeDestinationTables(
                             graph, monitor.view(), subscriber, deadline_us,
                             dist, config),
                         solver.Solve(subscriber, deadline_us, dist),
                         monitor.view(), config),
              "")
        << "subscriber " << s;
  }
}

// Per node, the largest finite d among its usable neighbours in `dr`
// (-infinity when none): what a reuse rule reading only the final
// unconstrained values would hold budgets against.
std::vector<double> FinalReads(const Graph& graph, const MonitoredView& view,
                               const oracle::DestinationTables& tables,
                               int m) {
  std::vector<double> reads(graph.node_count(), -kInfiniteDelay);
  for (std::size_t x = 0; x < graph.node_count(); ++x) {
    const NodeId node(static_cast<NodeId::underlying_type>(x));
    for (const Neighbor& nb : graph.neighbors(node)) {
      const DR& dr = tables.per_node[nb.peer.underlying()].dr;
      if (LiftedLink(view, nb.link, m).gamma <= 0.0 || !dr.reachable()) {
        continue;
      }
      reads[x] = std::max(reads[x], dr.d_us);
    }
  }
  return reads;
}

bool SameSolve(const oracle::DestinationTables& a,
               const oracle::DestinationTables& b) {
  if (a.sweeps_used != b.sweeps_used || a.converged != b.converged) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    const oracle::NodeTables& x = a.per_node[i];
    const oracle::NodeTables& y = b.per_node[i];
    if (!SameBits(x.dr.d_us, y.dr.d_us) || !SameBits(x.dr.r, y.dr.r) ||
        x.primary.size() != y.primary.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.primary.size(); ++k) {
      if (x.primary[k].neighbor != y.primary[k].neighbor) return false;
    }
  }
  return true;
}

TEST(DrSolverOracleTest, BudgetBindingOnlyAtAnIntermediateIterateIsSolved) {
  // A deadline just above every node's largest neighbour d in the final
  // unconstrained values clears every budget there; when it still changes
  // the oracle's solve, some budget bound while the sweeps passed through
  // a larger d. Reusing the unconstrained solve for such a destination
  // would be wrong, so the solver must solve it, and match the oracle.
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = 6 + rng.NextBounded(7);
    const std::size_t degree = 3 + rng.NextBounded(2);
    Rng topo_rng = rng.Fork("topology");
    const Graph graph = RandomConnected(nodes, degree, topo_rng);
    const FailureSchedule failures(rng.Fork("failures")(), 0.1);
    LinkMonitorConfig monitor_config;
    monitor_config.loss_rate = 1e-3;
    LinkMonitor monitor(graph, failures, monitor_config, rng.Fork("probes"));
    monitor.MeasureAt(SimTime::Zero());
    const MonitoredView& view = monitor.view();
    const DrComputationConfig config;
    DrSolver solver(graph, view, config);
    for (std::uint32_t p = 0; p < nodes; ++p) {
      const std::vector<double> dist =
          MonitoredDistancesFrom(graph, view, NodeId(p));
      for (std::uint32_t s = 0; s < nodes; ++s) {
        const NodeId subscriber(s);
        const oracle::DestinationTables unconstrained =
            oracle::ComputeDestinationTables(graph, view, subscriber,
                                             kInfiniteDelay, dist, config);
        const std::vector<double> reads =
            FinalReads(graph, view, unconstrained, config.max_transmissions);
        double threshold = -kInfiniteDelay;
        for (std::uint32_t x = 0; x < nodes; ++x) {
          if (x == s || reads[x] == -kInfiniteDelay) continue;
          threshold = std::max(threshold, reads[x] + dist[x]);
        }
        if (threshold == -kInfiniteDelay) continue;
        const double deadline_us = threshold + 1.0;
        const oracle::DestinationTables want = oracle::ComputeDestinationTables(
            graph, view, subscriber, deadline_us, dist, config);
        if (SameSolve(want, unconstrained)) continue;
        ++found;
        const DestinationTables got = solver.Solve(subscriber, deadline_us,
                                                   dist);
        EXPECT_FALSE(got.reused)
            << "seed " << seed << " publisher " << p << " subscriber " << s;
        EXPECT_EQ(TablesDiff(want, got, view, config), "")
            << "seed " << seed << " publisher " << p << " subscriber " << s;
      }
    }
  }
  EXPECT_GT(found, 0);
}

TEST(DrSolverOracleTest, SortEligibleMatchesStableSort) {
  // Node 0 of a star reads up to 40 neighbours, collected in a random warm
  // order: some unreachable, some past its budget, some reachable only
  // with an r that underflows to 0 across a gamma-0.5 link (eligible but
  // unusable), the rest with ratio ties broken by neighbour id. The update
  // rule's list and its Eq. 3 fold must match the oracle's collection bit
  // for bit under every policy.
  const double budget_us = 65'000.0;
  Rng rng(5);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t size = 1 + rng.NextBounded(40);
    Graph graph(size + 1);
    std::vector<SimDuration> alphas;
    std::vector<double> gammas;
    std::vector<DR> dr(size + 1);
    dr[0] = DR{0.0, 1.0};  // never read: node 0 is the one evaluated
    for (std::uint32_t k = 1; k <= size; ++k) {
      graph.AddEdge(NodeId(0), NodeId(k), SimDuration::Millis(10));
      alphas.push_back(SimDuration::Millis(10));
      gammas.push_back(1.0);
      dr[k] = DR{static_cast<double>(rng.NextBounded(8)) * 10'000.0,
                 static_cast<double>(1 + rng.NextBounded(4)) * 0.25};
      const std::uint64_t kind = rng.NextBounded(10);
      if (kind == 0) dr[k] = DR{};
      if (kind == 1) {
        gammas.back() = 0.5;
        dr[k].r = std::numeric_limits<double>::denorm_min();
      }
    }
    const MonitoredView view(std::move(alphas), std::move(gammas));
    const LiftedAdjacency adjacency(graph, view, 1);
    ASSERT_EQ(adjacency.begin[1] - adjacency.begin[0], size);
    const auto neighbor_dr = [&](std::uint32_t a) -> const DR& {
      return dr[adjacency.arcs[a].peer.underlying()];
    };
    std::vector<std::uint32_t> warm(size);
    std::iota(warm.begin(), warm.end(), 0U);
    rng.Shuffle(warm);
    for (const OrderingPolicy policy :
         {OrderingPolicy::kTheorem1, OrderingPolicy::kDelayFirst,
          OrderingPolicy::kReliabilityFirst}) {
      const std::vector<ViaEntry> want = oracle::CollectEligible(
          graph, view, dr, NodeId(0), budget_us, 1, policy);
      EvaluationScratch scratch;
      switch (policy) {
        case OrderingPolicy::kTheorem1:
          SortEligible<OrderingPolicy::kTheorem1>(
              adjacency, 0, budget_us, neighbor_dr, warm.data(), scratch);
          break;
        case OrderingPolicy::kDelayFirst:
          SortEligible<OrderingPolicy::kDelayFirst>(
              adjacency, 0, budget_us, neighbor_dr, warm.data(), scratch);
          break;
        case OrderingPolicy::kReliabilityFirst:
          SortEligible<OrderingPolicy::kReliabilityFirst>(
              adjacency, 0, budget_us, neighbor_dr, warm.data(), scratch);
          break;
      }
      std::vector<Neighbor> list(size);
      list.resize(WriteList(adjacency, 0, budget_us, neighbor_dr, scratch,
                            list.data()) -
                  list.data());
      std::vector<ViaEntry> got;
      for (const Neighbor& hop : list) {
        got.push_back(LiftAcrossLink(hop.peer, hop.link,
                                     LiftedLink(view, hop.link, 1),
                                     dr[hop.peer.underlying()]));
      }
      ASSERT_EQ(EntriesDiff("list", want, got), "")
          << "round " << round << " policy " << static_cast<int>(policy);
      const DR folded = CombineOrdered(scratch.sorted);
      const DR expected = CombineOrdered(want);
      ASSERT_TRUE(SameBits(folded.d_us, expected.d_us) &&
                  SameBits(folded.r, expected.r))
          << "round " << round << " policy " << static_cast<int>(policy);
    }
  }
}

}  // namespace
}  // namespace dcrd
