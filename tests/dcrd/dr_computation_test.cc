#include "dcrd/dr_computation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
#include "support/solved_destination.h"

namespace dcrd {
namespace {

// Builds a MonitoredView straight from ground truth with uniform gamma.
MonitoredView PerfectView(const Graph& graph, double gamma = 1.0) {
  std::vector<SimDuration> alphas;
  std::vector<double> gammas;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    alphas.push_back(graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay);
    gammas.push_back(gamma);
  }
  return MonitoredView(std::move(alphas), std::move(gammas));
}

TEST(MonitoredDistancesTest, MatchesDijkstra) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 10'000.0);
  EXPECT_DOUBLE_EQ(dist[3], 30'000.0);
}

TEST(DrComputationTest, LineGraphReliableLinks) {
  // On a reliable line, d equals the shortest-path delay and r = 1.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(3), 1e9, dist);
  const DestinationTables& tables = tables_solve.tables;
  EXPECT_TRUE(tables.converged);
  EXPECT_DOUBLE_EQ(tables.per_node[3].dr.d_us, 0.0);
  EXPECT_DOUBLE_EQ(tables.per_node[3].dr.r, 1.0);
  EXPECT_NEAR(tables.per_node[2].dr.d_us, 10'000.0, 1.0);
  EXPECT_NEAR(tables.per_node[0].dr.d_us, 30'000.0, 1.0);
  EXPECT_DOUBLE_EQ(tables.per_node[0].dr.r, 1.0);
}

TEST(DrComputationTest, SubscriberSeedIsZeroOne) {
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(2), 1e9, dist);
  const DestinationTables& tables = tables_solve.tables;
  EXPECT_EQ(tables.per_node[2].dr, (DR{0.0, 1.0}));
  EXPECT_TRUE(tables.per_node[2].primary.empty());
}

TEST(DrComputationTest, SendingListSortedByTheorem1) {
  Rng rng(3);
  const Graph graph = RandomConnected(12, 5, rng);
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(11), 1e9,
                                             dist);
  const DestinationTables& tables = tables_solve.tables;
  const ListTable& table = tables.per_node.primary_table();
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    const auto list = tables.per_node[v].primary;
    for (std::size_t k = 0; k + 1 < list.size(); ++k) {
      const ViaEntry a = ViaEntryOf(table, list[k], view, 1);
      const ViaEntry b = ViaEntryOf(table, list[k + 1], view, 1);
      EXPECT_LE(a.d_via_us * b.r_via, b.d_via_us * a.r_via + 1e-6)
          << "node " << v << " entry " << k;
    }
  }
}

TEST(DrComputationTest, EligibilityFiltersOnBudget) {
  // Line 0-1-2-3, subscriber 3. Node 1's neighbours are 0 (d=inf via? no:
  // d_0 is finite but large) and 2 (d=10ms). With budget(1) = 15ms the
  // entry via node 0 (d_0 = 30ms > 15ms) is excluded from the primary list;
  // the fallback list is the subscriber's unconstrained list, which holds
  // both, so the walk past the primary list reaches node 0.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  std::vector<double> publisher_dist = {0.0, 10'000.0, 20'000.0, 30'000.0};
  const double deadline = 25'000.0;  // budget(1) = 15ms, budget(2) = 5ms
  DrComputationConfig config;
  const test::SolvedDestination tables_solve(graph, view, NodeId(3), deadline,
                                             publisher_dist, config);
  const DestinationTables& tables = tables_solve.tables;
  EXPECT_FALSE(tables.reused);
  const NodeTables node1 = tables.per_node[1];
  ASSERT_EQ(node1.primary.size(), 1U);
  EXPECT_EQ(node1.primary[0].peer, NodeId(2));
  ASSERT_EQ(node1.fallback.size(), 2U);
  EXPECT_EQ(node1.fallback[0].peer, NodeId(2));
  EXPECT_EQ(node1.fallback[1].peer, NodeId(0));
}

TEST(DrComputationTest, UnreachableBudgetKillsList) {
  // Deadline smaller than any path: nobody qualifies; r = 0 everywhere
  // except the subscriber.
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  std::vector<double> publisher_dist = {0.0, 10'000.0, 20'000.0};
  const test::SolvedDestination tables_solve(graph, view, NodeId(2),
                                             /*deadline=*/1.0, publisher_dist);
  const DestinationTables& tables = tables_solve.tables;
  EXPECT_FALSE(tables.per_node[0].dr.reachable());
  EXPECT_TRUE(tables.per_node[0].primary.empty());
}

TEST(DrComputationTest, UnreliableLinksLowerR) {
  // Line 0-1-2 toward subscriber 2 with gamma = 0.9 everywhere. Node 1's
  // sending list is {2, 0} (the paper's recursion admits the neighbour
  // behind you; forwarding-time loop prevention is what stops actual
  // loops), so the fixed point solves
  //   r_1 = 1 - (1 - 0.9)(1 - 0.9 r_0),   r_0 = 0.9 r_1
  // giving r_1 = 0.9 / (1 - 0.081) and r_0 = 0.9 r_1 — above the pure
  // chain values 0.9 / 0.81 but strictly below 1.
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(2), 1e9, dist);
  const DestinationTables& tables = tables_solve.tables;
  const double r1 = 0.9 / (1 - 0.081);
  EXPECT_NEAR(tables.per_node[1].dr.r, r1, 1e-6);
  EXPECT_NEAR(tables.per_node[0].dr.r, 0.9 * r1, 1e-6);
  EXPECT_GT(tables.per_node[1].dr.r, 0.9);
  EXPECT_LT(tables.per_node[1].dr.r, 1.0);
}

TEST(DrComputationTest, RedundantPathsRaiseR) {
  // Diamond 0->{1,2}->3: with gamma=0.9 everywhere node 0 reaches 3 via two
  // disjoint 2-hop routes; r must exceed the single-path 0.81.
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(12));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(12));
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(3), 1e9, dist);
  const DestinationTables& tables = tables_solve.tables;
  EXPECT_GT(tables.per_node[0].dr.r, 0.81);
  ASSERT_EQ(tables.per_node[0].primary.size(), 2U);
  EXPECT_EQ(tables.per_node[0].primary[0].peer, NodeId(1));
}

TEST(DrComputationTest, MTransmissionsRaiseRAndDelay) {
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph, 0.8);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  DrComputationConfig m1, m2;
  m1.max_transmissions = 1;
  m2.max_transmissions = 2;
  const test::SolvedDestination t1_solve(graph, view, NodeId(2), 1e9, dist, m1);
  const DestinationTables& t1 = t1_solve.tables;
  const test::SolvedDestination t2_solve(graph, view, NodeId(2), 1e9, dist, m2);
  const DestinationTables& t2 = t2_solve.tables;
  EXPECT_GT(t2.per_node[0].dr.r, t1.per_node[0].dr.r);
  EXPECT_GT(t2.per_node[0].dr.d_us, t1.per_node[0].dr.d_us);
}

TEST(DrComputationTest, ConvergesOnCyclicTopologies) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const Graph graph = RandomConnected(20, 6, rng);
    const MonitoredView view = PerfectView(graph, 0.95);
    const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
    const test::SolvedDestination tables_solve(graph, view, NodeId(19),
                                               300'000.0, dist);
    const DestinationTables& tables = tables_solve.tables;
    EXPECT_TRUE(tables.converged) << "seed " << seed;
    EXPECT_LT(tables.sweeps_used, 64);
    // Everybody with a list within budget can reach the subscriber.
    for (std::size_t v = 0; v < 20; ++v) {
      if (!tables.per_node[v].primary.empty()) {
        EXPECT_TRUE(tables.per_node[v].dr.reachable());
        EXPECT_GT(tables.per_node[v].dr.r, 0.0);
        EXPECT_LE(tables.per_node[v].dr.r, 1.0 + 1e-12);
      }
    }
  }
}

TEST(DrComputationTest, DLowerBoundedByShortestPath) {
  // The expected delay can never beat the monitored shortest-path delay.
  Rng rng(9);
  const Graph graph = RandomConnected(15, 5, rng);
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto to_sub = MonitoredDistancesFrom(graph, view, NodeId(14));
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const test::SolvedDestination tables_solve(graph, view, NodeId(14), 1e9,
                                             dist);
  const DestinationTables& tables = tables_solve.tables;
  for (std::size_t v = 0; v < 15; ++v) {
    if (tables.per_node[v].dr.reachable()) {
      EXPECT_GE(tables.per_node[v].dr.d_us, to_sub[v] - 1.0) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace dcrd
