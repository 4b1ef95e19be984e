// Ordering-policy ablation machinery (SendsBefore<kPolicy>, the comparator
// the update rule sorts with) and its effect on the computed <d,r> tables.
#include <algorithm>
#include <limits>

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

template <OrderingPolicy kPolicy>
void SortAs(std::vector<ViaEntry>& entries) {
  std::sort(entries.begin(), entries.end(), SendsBefore<kPolicy>);
}

double ExpectedDelay(const std::vector<ViaEntry>& entries) {
  return CombineOrdered(entries).d_us;
}

// Node 0's sending list on a star under kPolicy when it reads `heard` over
// its three arcs, all within budget.
template <OrderingPolicy kPolicy>
std::vector<NodeId> StarList(const std::vector<DR>& heard) {
  Graph graph(4);
  for (std::uint32_t v = 1; v < 4; ++v) {
    graph.AddEdge(NodeId(0), NodeId(v), SimDuration::Millis(10));
  }
  const MonitoredView view(std::vector<SimDuration>(3, SimDuration::Millis(10)),
                           std::vector<double>(3, 0.5));
  const LiftedAdjacency adjacency(graph, view, 1);
  const auto neighbor_dr = [&](std::uint32_t a) -> const DR& {
    return heard[a];
  };
  std::vector<std::uint32_t> warm = {0, 1, 2};
  EvaluationScratch scratch;
  SortEligible<kPolicy>(adjacency, 0, kInfiniteDelay, neighbor_dr,
                        warm.data(), scratch);
  std::vector<Neighbor> list(3);
  list.resize(WriteList(adjacency, 0, kInfiniteDelay, neighbor_dr, scratch,
                        list.data()) -
              list.data());
  std::vector<NodeId> peers;
  for (const Neighbor& hop : list) peers.push_back(hop.peer);
  return peers;
}

TEST(OrderingPolicyTest, DelayFirstSortsByD) {
  std::vector<ViaEntry> entries = {Entry(1, 30'000, 0.99),
                                   Entry(2, 10'000, 0.40),
                                   Entry(3, 20'000, 0.80)};
  SortAs<OrderingPolicy::kDelayFirst>(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(1));
}

TEST(OrderingPolicyTest, ReliabilityFirstSortsByRDescending) {
  std::vector<ViaEntry> entries = {Entry(1, 30'000, 0.99),
                                   Entry(2, 10'000, 0.40),
                                   Entry(3, 20'000, 0.80)};
  SortAs<OrderingPolicy::kReliabilityFirst>(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(1));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(2));
}

TEST(OrderingPolicyTest, UnreachableEntriesAlwaysLast) {
  // The neighbour behind arc 0 is reachable only with an r so small that
  // r_via underflows to 0: under every policy it follows the usable ones.
  const std::vector<DR> heard = {
      DR{1'000, std::numeric_limits<double>::denorm_min()},
      DR{30'000, 0.9}, DR{10'000, 0.5}};
  const std::vector<NodeId> by_delay = {NodeId(3), NodeId(2), NodeId(1)};
  const std::vector<NodeId> by_reliability = {NodeId(2), NodeId(3),
                                              NodeId(1)};
  EXPECT_EQ(StarList<OrderingPolicy::kDelayFirst>(heard), by_delay);
  EXPECT_EQ(StarList<OrderingPolicy::kReliabilityFirst>(heard),
            by_reliability);
  // d/r: 40k / 0.45 = 88.9k via 2, 20k / 0.25 = 80k via 3.
  EXPECT_EQ(StarList<OrderingPolicy::kTheorem1>(heard), by_delay);
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
    SortAs<OrderingPolicy::kTheorem1>(theorem);
    SortAs<OrderingPolicy::kDelayFirst>(delay);
    SortAs<OrderingPolicy::kReliabilityFirst>(reliability);
    const double best = ExpectedDelay(theorem);
    EXPECT_LE(best, ExpectedDelay(delay) + 1e-6);
    EXPECT_LE(best, ExpectedDelay(reliability) + 1e-6);
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
