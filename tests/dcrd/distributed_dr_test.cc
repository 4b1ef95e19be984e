// The Section III-B gossip protocol run literally over the simulated
// network, checked against the centralized fixed-point solver.
#include <cmath>

#include <gtest/gtest.h>

#include "dcrd/distributed_dr.h"
#include "graph/topology.h"
#include "support/solved_destination.h"

namespace dcrd {
namespace {

MonitoredView PerfectView(const Graph& graph, double gamma = 1.0) {
  std::vector<SimDuration> alphas;
  std::vector<double> gammas;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    alphas.push_back(
        graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay);
    gammas.push_back(gamma);
  }
  return MonitoredView(std::move(alphas), std::move(gammas));
}

// `node`'s sending list in the gossip, copied out.
std::vector<Neighbor> ListOf(const DistributedDrComputation& protocol,
                             NodeId node) {
  const auto list = protocol.list(node);
  return {list.begin(), list.end()};
}

// Every node's <d,r> and sending list in the gossip, as a table.
ListTable TableOf(const DistributedDrComputation& protocol,
                  std::size_t node_count) {
  ListTable table;
  for (std::size_t v = 0; v < node_count; ++v) {
    const NodeId node(static_cast<NodeId::underlying_type>(v));
    table.dr.push_back(protocol.dr(node));
    table.begin.push_back(static_cast<std::uint32_t>(table.entries.size()));
    for (const Neighbor& hop : protocol.list(node)) {
      table.entries.push_back(hop);
    }
  }
  table.begin.push_back(static_cast<std::uint32_t>(table.entries.size()));
  return table;
}

struct ProtocolRun {
  ListTable tables;
  std::uint64_t updates_sent = 0;
  SimTime converged_at;
};

ProtocolRun RunProtocol(const Graph& graph, const MonitoredView& view,
                        NodeId subscriber, double deadline_us,
                        NodeId publisher, double loss_rate = 0.0,
                        DistributedDrConfig config = {}) {
  ProtocolRun run;
  Scheduler scheduler;
  OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0),
                         loss_rate, Rng(3));
  std::vector<double> budgets(graph.node_count());
  const auto dist = MonitoredDistancesFrom(graph, view, publisher);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    budgets[i] = deadline_us - dist[i];
  }
  budgets[subscriber.underlying()] =
      std::max(budgets[subscriber.underlying()], 1.0);
  const LiftedAdjacency adjacency(graph, view, /*max_transmissions=*/1);
  auto protocol = std::make_shared<DistributedDrComputation>(
      network, subscriber, adjacency, budgets, config);
  protocol->Start();
  scheduler.Run();
  run.tables = TableOf(*protocol, graph.node_count());
  run.updates_sent = protocol->updates_sent();
  run.converged_at = protocol->last_change();
  return run;
}

TEST(DistributedDrTest, LineGraphConvergesToExactValues) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const ProtocolRun run =
      RunProtocol(graph, view, NodeId(3), 1e9, NodeId(0));
  EXPECT_NEAR(run.tables.dr[0].d_us, 30'000.0, 1.0);
  EXPECT_NEAR(run.tables.dr[2].d_us, 10'000.0, 1.0);
  EXPECT_DOUBLE_EQ(run.tables.dr[0].r, 1.0);
}

TEST(DistributedDrTest, MatchesCentralizedSolverOnRandomOverlays) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    const Graph graph = RandomConnected(14, 5, rng);
    const MonitoredView view = PerfectView(graph, 0.92);
    const NodeId subscriber(13), publisher(0);
    const auto dist = MonitoredDistancesFrom(graph, view, publisher);
    const double deadline_us = 3.0 * dist[subscriber.underlying()];

    const ProtocolRun run =
        RunProtocol(graph, view, subscriber, deadline_us, publisher);
    DrComputationConfig central_config;
    central_config.max_sweeps = 256;
    central_config.tolerance_us = 0.01;
    const test::SolvedDestination central_solve(graph, view, subscriber,
                                                deadline_us, dist,
                                                central_config);
    const DestinationTables& central = central_solve.tables;

    for (std::size_t v = 0; v < graph.node_count(); ++v) {
      const DR& gossip = run.tables.dr[v];
      const DR& solver = central.per_node[v].dr;
      ASSERT_EQ(gossip.reachable(), solver.reachable())
          << "seed " << seed << " node " << v;
      if (!gossip.reachable()) continue;
      EXPECT_NEAR(gossip.d_us, solver.d_us, 5.0)
          << "seed " << seed << " node " << v;
      EXPECT_NEAR(gossip.r, solver.r, 1e-4)
          << "seed " << seed << " node " << v;
      // And the resulting sending lists agree entry by entry.
      const auto gossip_list = run.tables.list(v);
      const auto solver_list = central.per_node[v].primary;
      ASSERT_EQ(gossip_list.size(), solver_list.size());
      for (std::size_t k = 0; k < gossip_list.size(); ++k) {
        EXPECT_EQ(gossip_list[k].peer, solver_list[k].peer);
      }
    }
  }
}

TEST(DistributedDrTest, ConvergenceTakesNetworkTime) {
  // Updates travel over real links: convergence cannot beat the monitored
  // distance from the subscriber to the farthest node.
  const Graph graph = Line(5, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const ProtocolRun run =
      RunProtocol(graph, view, NodeId(4), 1e9, NodeId(0));
  EXPECT_GE(run.converged_at, SimTime::Zero() + SimDuration::Millis(40));
  EXPECT_LT(run.converged_at, SimTime::Zero() + SimDuration::Millis(400));
}

TEST(DistributedDrTest, QuiescesWithBoundedTraffic) {
  // On cyclic overlays the fixed point is approached through a geometric
  // cascade of shrinking updates, so message counts are tolerance-driven:
  // a coarser update threshold must damp the chatter, and even the fine
  // default stays far from runaway (it quiesced at all — Run() returned).
  Rng rng(7);
  const Graph graph = RandomConnected(16, 6, rng);
  const MonitoredView view = PerfectView(graph, 0.9);
  const ProtocolRun fine = RunProtocol(graph, view, NodeId(15), 1e9, NodeId(0));
  DistributedDrConfig coarse_config;
  coarse_config.update_threshold_us = 100.0;
  const ProtocolRun coarse = RunProtocol(graph, view, NodeId(15), 1e9,
                                         NodeId(0), 0.0, coarse_config);
  EXPECT_GT(fine.updates_sent, graph.node_count());
  EXPECT_LT(fine.updates_sent, 50'000U);  // runaway guard
  EXPECT_LT(coarse.updates_sent, fine.updates_sent / 2);
}

TEST(DistributedDrTest, LostUpdatesLeaveStaleStateWithoutAntiEntropy) {
  // With heavy control-plane loss and no rebroadcasts, some node usually
  // ends up stale or unreachable; with anti-entropy the protocol recovers.
  Rng rng(9);
  const Graph graph = RandomConnected(12, 4, rng);
  const MonitoredView view = PerfectView(graph);

  DistributedDrConfig no_repair;
  const ProtocolRun lossy = RunProtocol(graph, view, NodeId(11), 1e9,
                                        NodeId(0), /*loss_rate=*/0.4,
                                        no_repair);
  DistributedDrConfig with_repair;
  with_repair.rebroadcasts = 8;
  const ProtocolRun repaired = RunProtocol(graph, view, NodeId(11), 1e9,
                                           NodeId(0), /*loss_rate=*/0.4,
                                           with_repair);
  std::size_t lossy_reachable = 0, repaired_reachable = 0;
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    lossy_reachable += lossy.tables.dr[v].reachable() ? 1 : 0;
    repaired_reachable += repaired.tables.dr[v].reachable() ? 1 : 0;
  }
  EXPECT_GE(repaired_reachable, lossy_reachable);
  EXPECT_EQ(repaired_reachable, graph.node_count());
}

TEST(DistributedDrTest, BudgetFilteringAppliesInFlight) {
  // Tight deadline: the gossip must converge to the same starved lists the
  // solver computes.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const std::vector<double> dist = {0.0, 10'000.0, 20'000.0, 30'000.0};
  const double deadline_us = 25'000.0;
  const ProtocolRun run =
      RunProtocol(graph, view, NodeId(3), deadline_us, NodeId(0));
  const test::SolvedDestination central_solve(graph, view, NodeId(3),
                                              deadline_us, dist);
  const DestinationTables& central = central_solve.tables;
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    EXPECT_EQ(run.tables.list(v).size(),
              central.per_node[v].primary.size())
        << "node " << v;
  }
}

TEST(DistributedDrTest, RestartedNodeForgetsUntilAnswersLand) {
  // Line 0-1-2-3 toward subscriber 3, converged and quiet. Node 1 restarts:
  // it reads <inf,0> with an empty list until the first answer to its
  // solicitation lands a 10 ms round trip later, the subscriber keeps
  // <0,1>, and once the gossip is quiet again node 1 holds the list it
  // held before.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  Scheduler scheduler;
  OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(3));
  const LiftedAdjacency adjacency(graph, view, 1);
  auto protocol = std::make_shared<DistributedDrComputation>(
      network, NodeId(3), adjacency, std::vector<double>(4, kInfiniteDelay));
  protocol->Start();
  scheduler.Run();
  const NodeId node(1);
  const DR before = protocol->dr(node);
  const std::vector<Neighbor> list_before = ListOf(*protocol, node);
  ASSERT_TRUE(before.reachable());
  ASSERT_EQ(list_before.size(), 2u);

  protocol->OnNodeRestart(node);
  const SimTime restarted = scheduler.now();
  for (const SimTime until :
       {restarted, restarted + SimDuration::Millis(10),
        restarted + SimDuration::Millis(19)}) {
    scheduler.RunUntil(until);
    EXPECT_EQ(protocol->dr(node), DR{});
    EXPECT_TRUE(protocol->list(node).empty());
    EXPECT_EQ(protocol->dr(NodeId(3)), (DR{0.0, 1.0}));
  }
  scheduler.Run();
  EXPECT_EQ(protocol->dr(node), before);
  const std::vector<Neighbor> list_after = ListOf(*protocol, node);
  ASSERT_EQ(list_after.size(), list_before.size());
  for (std::size_t k = 0; k < list_before.size(); ++k) {
    EXPECT_EQ(list_after[k].peer, list_before[k].peer);
    EXPECT_EQ(list_after[k].link, list_before[k].link);
  }
  EXPECT_EQ(protocol->dr(NodeId(3)), (DR{0.0, 1.0}));
}

}  // namespace
}  // namespace dcrd
