#include "graph/topology.h"

#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/connectivity.h"

namespace dcrd {
namespace {

// RandomConnected as it was before it counted eligible pairs per row: each
// added edge lists every eligible open pair and draws one. The reference
// the counting generator must reproduce edge for edge and draw for draw.
Graph ReferenceRandomConnected(std::size_t node_count,
                               std::size_t target_degree, Rng& rng) {
  const DelayRange range;
  Graph graph(node_count);
  std::vector<std::uint32_t> order(node_count);
  std::iota(order.begin(), order.end(), 0U);
  rng.Shuffle(order);
  for (std::size_t i = 0; i < node_count; ++i) {
    graph.AddEdge(NodeId(order[i]), NodeId(order[(i + 1) % node_count]),
                  DrawLinkDelay(rng, range));
  }
  std::vector<std::uint32_t> open;
  for (std::uint32_t v = 0; v < node_count; ++v) {
    if (graph.degree(NodeId(v)) < target_degree) open.push_back(v);
  }
  while (open.size() >= 2) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> eligible;
    for (std::size_t i = 0; i < open.size(); ++i) {
      for (std::size_t j = i + 1; j < open.size(); ++j) {
        if (!graph.HasEdge(NodeId(open[i]), NodeId(open[j]))) {
          eligible.emplace_back(open[i], open[j]);
        }
      }
    }
    if (eligible.empty()) break;
    const auto [a, b] = eligible[rng.NextBounded(eligible.size())];
    graph.AddEdge(NodeId(a), NodeId(b), DrawLinkDelay(rng, range));
    open.clear();
    for (std::uint32_t v = 0; v < node_count; ++v) {
      if (graph.degree(NodeId(v)) < target_degree) open.push_back(v);
    }
  }
  return graph;
}

TEST(FullMeshTest, EveryPairConnected) {
  Rng rng(1);
  const Graph graph = FullMesh(8, rng);
  EXPECT_EQ(graph.edge_count(), 8U * 7U / 2U);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(graph.degree(NodeId(static_cast<NodeId::underlying_type>(i))),
              7U);
  }
  EXPECT_TRUE(IsConnected(graph));
}

TEST(FullMeshTest, DelaysWithinPaperRange) {
  Rng rng(2);
  const Graph graph = FullMesh(20, rng);
  for (const EdgeSpec& edge : graph.edges()) {
    EXPECT_GE(edge.delay, SimDuration::Millis(10));
    EXPECT_LE(edge.delay, SimDuration::Millis(50));
  }
}

TEST(FullMeshTest, DelaysVary) {
  Rng rng(3);
  const Graph graph = FullMesh(20, rng);
  SimDuration min = SimDuration::Max(), max = SimDuration::Zero();
  for (const EdgeSpec& edge : graph.edges()) {
    min = std::min(min, edge.delay);
    max = std::max(max, edge.delay);
  }
  EXPECT_LT(min + SimDuration::Millis(5), max);
}

TEST(RandomConnectedTest, ConnectedAtEveryDegree) {
  for (std::size_t degree = 2; degree <= 10; ++degree) {
    Rng rng(degree);
    const Graph graph = RandomConnected(20, degree, rng);
    EXPECT_TRUE(IsConnected(graph)) << "degree " << degree;
  }
}

TEST(RandomConnectedTest, DegreeBounds) {
  Rng rng(9);
  const Graph graph = RandomConnected(20, 5, rng);
  std::size_t at_target = 0;
  for (std::size_t v = 0; v < 20; ++v) {
    const std::size_t degree =
        graph.degree(NodeId(static_cast<NodeId::underlying_type>(v)));
    EXPECT_GE(degree, 2U);
    EXPECT_LE(degree, 5U);
    at_target += degree == 5 ? 1 : 0;
  }
  // The greedy augmentation leaves at most a small residue below target.
  EXPECT_GE(at_target, 16U);
}

TEST(RandomConnectedTest, DeterministicForSeed) {
  Rng rng_a(42), rng_b(42);
  const Graph a = RandomConnected(15, 4, rng_a);
  const Graph b = RandomConnected(15, 4, rng_b);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    EXPECT_EQ(a.edge(link).a, b.edge(link).a);
    EXPECT_EQ(a.edge(link).b, b.edge(link).b);
    EXPECT_EQ(a.edge(link).delay, b.edge(link).delay);
  }
}

TEST(RandomConnectedTest, DifferentSeedsDiffer) {
  Rng rng_a(1), rng_b(2);
  const Graph a = RandomConnected(15, 4, rng_a);
  const Graph b = RandomConnected(15, 4, rng_b);
  bool differs = a.edge_count() != b.edge_count();
  for (std::size_t e = 0; !differs && e < a.edge_count(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    differs = a.edge(link).a != b.edge(link).a ||
              a.edge(link).b != b.edge(link).b;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomConnectedTest, LargeNetworkSizes) {
  // The Fig. 5 sizes must all generate quickly and connected.
  for (std::size_t n : {10U, 20U, 40U, 80U, 120U, 160U}) {
    Rng rng(n);
    const Graph graph = RandomConnected(n, 8, rng);
    EXPECT_TRUE(IsConnected(graph));
    EXPECT_EQ(graph.node_count(), n);
  }
}

TEST(RandomConnectedTest, MatchesEnumeratingReference) {
  for (const std::size_t nodes : {10, 20, 40, 100, 160, 400}) {
    for (const std::size_t degree : {3, 5, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "n=" << nodes << " degree="
                                        << degree << " seed=" << seed);
        Rng rng(seed), reference_rng(seed);
        const Graph graph = RandomConnected(nodes, degree, rng);
        const Graph reference =
            ReferenceRandomConnected(nodes, degree, reference_rng);
        ASSERT_EQ(graph.edge_count(), reference.edge_count());
        for (std::size_t e = 0; e < graph.edge_count(); ++e) {
          const EdgeSpec& got = graph.edges()[e];
          const EdgeSpec& want = reference.edges()[e];
          EXPECT_EQ(got.a, want.a) << "edge " << e;
          EXPECT_EQ(got.b, want.b) << "edge " << e;
          EXPECT_EQ(got.delay, want.delay) << "edge " << e;
        }
        // Both consumed the same draws.
        EXPECT_EQ(rng(), reference_rng());
      }
    }
  }
}

TEST(RingTest, Shape) {
  const Graph graph = Ring(5, SimDuration::Millis(10));
  EXPECT_EQ(graph.edge_count(), 5U);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_EQ(graph.degree(NodeId(static_cast<NodeId::underlying_type>(v))),
              2U);
  }
  EXPECT_TRUE(IsConnected(graph));
}

TEST(LineTest, Shape) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  EXPECT_EQ(graph.edge_count(), 3U);
  EXPECT_EQ(graph.degree(NodeId(0)), 1U);
  EXPECT_EQ(graph.degree(NodeId(1)), 2U);
  EXPECT_EQ(graph.degree(NodeId(3)), 1U);
}

TEST(StarTest, Shape) {
  const Graph graph = Star(6, SimDuration::Millis(10));
  EXPECT_EQ(graph.node_count(), 7U);
  EXPECT_EQ(graph.degree(NodeId(0)), 6U);
  EXPECT_EQ(graph.degree(NodeId(3)), 1U);
}

TEST(ConnectivityTest, ReachableFromRespectsFilter) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  const auto link12 = *graph.FindEdge(NodeId(1), NodeId(2));
  const auto seen = ReachableFrom(graph, NodeId(0), [&](LinkId link) {
    return link != link12;
  });
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_FALSE(seen[2]);
  EXPECT_FALSE(seen[3]);
}

TEST(ConnectivityTest, DisconnectedGraphDetected) {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(1));
  EXPECT_FALSE(IsConnected(graph));
}

TEST(DrawLinkDelayTest, RespectsCustomRange) {
  Rng rng(4);
  const DelayRange range{SimDuration::Millis(2), SimDuration::Millis(3)};
  for (int i = 0; i < 1000; ++i) {
    const SimDuration delay = DrawLinkDelay(rng, range);
    EXPECT_GE(delay, range.min);
    EXPECT_LE(delay, range.max);
  }
}

}  // namespace
}  // namespace dcrd
