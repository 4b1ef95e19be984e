// Ordering-policy ablation machinery (SortByPolicy) and its effect on the
// computed <d,r> tables.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcrd/dr.h"
#include "dcrd/dr_computation.h"
#include "graph/topology.h"
#include "support/solved_destination.h"

namespace dcrd {
namespace {

ViaEntry Entry(std::uint32_t id, double d, double r) {
  return ViaEntry{NodeId(id), LinkId(id), d, r};
}

TEST(OrderingPolicyTest, DelayFirstSortsByD) {
  std::vector<ViaEntry> entries = {Entry(1, 30'000, 0.99),
                                   Entry(2, 10'000, 0.40),
                                   Entry(3, 20'000, 0.80)};
  SortByPolicy(entries, OrderingPolicy::kDelayFirst);
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(1));
}

TEST(OrderingPolicyTest, ReliabilityFirstSortsByRDescending) {
  std::vector<ViaEntry> entries = {Entry(1, 30'000, 0.99),
                                   Entry(2, 10'000, 0.40),
                                   Entry(3, 20'000, 0.80)};
  SortByPolicy(entries, OrderingPolicy::kReliabilityFirst);
  EXPECT_EQ(entries[0].neighbor, NodeId(1));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(2));
}

TEST(OrderingPolicyTest, Theorem1DelegatesToProvenSort) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ViaEntry> entries;
    for (std::uint32_t i = 0; i < 6; ++i) {
      entries.push_back(Entry(i, rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.05, 1.0)));
    }
    auto by_policy = entries;
    SortByPolicy(by_policy, OrderingPolicy::kTheorem1);
    SortByTheorem1(entries);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(by_policy[i].neighbor, entries[i].neighbor);
    }
  }
}

TEST(OrderingPolicyTest, UnreachableEntriesAlwaysLast) {
  for (const OrderingPolicy policy :
       {OrderingPolicy::kTheorem1, OrderingPolicy::kDelayFirst,
        OrderingPolicy::kReliabilityFirst}) {
    std::vector<ViaEntry> entries = {Entry(1, kInfiniteDelay, 0.0),
                                     Entry(2, 10'000, 0.5)};
    SortByPolicy(entries, policy);
    EXPECT_EQ(entries[0].neighbor, NodeId(2));
    EXPECT_EQ(entries[1].neighbor, NodeId(1));
  }
}

TEST(OrderingPolicyTest, Theorem1NeverWorseInExpectedDelay) {
  // Over random instances, Eq. 3 under Theorem-1 order <= Eq. 3 under
  // either alternative order.
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<ViaEntry> entries;
    const int n = static_cast<int>(rng.NextInRange(2, 7));
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n); ++i) {
      entries.push_back(Entry(i, rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.05, 1.0)));
    }
    auto theorem = entries, delay = entries, reliability = entries;
    SortByPolicy(theorem, OrderingPolicy::kTheorem1);
    SortByPolicy(delay, OrderingPolicy::kDelayFirst);
    SortByPolicy(reliability, OrderingPolicy::kReliabilityFirst);
    const double best = ExpectedDelayOfOrder(theorem);
    EXPECT_LE(best, ExpectedDelayOfOrder(delay) + 1e-6);
    EXPECT_LE(best, ExpectedDelayOfOrder(reliability) + 1e-6);
  }
}

TEST(OrderingPolicyTest, PolicyChangesComputedTables) {
  // On a graph with a reliable-slow vs flaky-fast choice, the policies must
  // produce different list heads at the publisher.
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(30));  // slow
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(30));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(5));   // fast
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(5));
  std::vector<SimDuration> alphas;
  std::vector<double> gammas = {0.99, 0.99, 0.30, 0.30};  // fast is flaky
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    alphas.push_back(graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay);
  }
  const MonitoredView view(alphas, gammas);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));

  DrComputationConfig delay_config, reliability_config;
  delay_config.ordering = OrderingPolicy::kDelayFirst;
  reliability_config.ordering = OrderingPolicy::kReliabilityFirst;
  const test::SolvedDestination by_delay_solve(graph, view, NodeId(3), 1e9,
                                               dist, delay_config);
  const DestinationTables& by_delay = by_delay_solve.tables;
  const test::SolvedDestination by_reliability_solve(graph, view, NodeId(3),
                                                     1e9, dist,
                                                     reliability_config);
  const DestinationTables& by_reliability = by_reliability_solve.tables;

  ASSERT_FALSE(by_delay.per_node[0].primary.empty());
  ASSERT_FALSE(by_reliability.per_node[0].primary.empty());
  EXPECT_EQ(by_delay.per_node[0].primary[0].peer, NodeId(2));
  EXPECT_EQ(by_reliability.per_node[0].primary[0].peer, NodeId(1));
}

}  // namespace
}  // namespace dcrd
