#include "graph/yen_ksp.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"

namespace dcrd {
namespace {

Graph TwoRoutes() {
  // 0-1-3 (3ms) and 0-2-3 (5ms), plus direct 0-3 (10ms).
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(2));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(2));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(3));
  graph.AddEdge(NodeId(0), NodeId(3), SimDuration::Millis(10));
  return graph;
}

TEST(YenTest, RanksPathsByDelay) {
  const Graph graph = TwoRoutes();
  const auto paths = YenKShortestPaths(graph, NodeId(0), NodeId(3), 3);
  ASSERT_EQ(paths.size(), 3U);
  EXPECT_EQ(paths[0].nodes,
            (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(3)}));
  EXPECT_EQ(paths[0].total_delay, SimDuration::Millis(3));
  EXPECT_EQ(paths[1].nodes,
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(3)}));
  EXPECT_EQ(paths[1].total_delay, SimDuration::Millis(5));
  EXPECT_EQ(paths[2].nodes, (std::vector<NodeId>{NodeId(0), NodeId(3)}));
}

TEST(YenTest, StopsWhenGraphExhausted) {
  const Graph graph = TwoRoutes();
  const auto paths = YenKShortestPaths(graph, NodeId(0), NodeId(3), 50);
  // The diamond supports a limited number of loopless paths; all distinct.
  std::set<std::vector<NodeId>> unique;
  for (const auto& path : paths) unique.insert(path.nodes);
  EXPECT_EQ(unique.size(), paths.size());
  EXPECT_LT(paths.size(), 50U);
}

TEST(YenTest, KZeroAndUnreachable) {
  const Graph graph = TwoRoutes();
  EXPECT_TRUE(YenKShortestPaths(graph, NodeId(0), NodeId(3), 0).empty());

  Graph split(3);
  split.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  EXPECT_TRUE(YenKShortestPaths(split, NodeId(0), NodeId(2), 5).empty());
}

TEST(YenTest, PathsAreLoopless) {
  Rng rng(77);
  const Graph graph = RandomConnected(15, 5, rng);
  const auto paths =
      YenKShortestPaths(graph, NodeId(0), NodeId(14), 8);
  for (const auto& path : paths) {
    std::set<NodeId> seen(path.nodes.begin(), path.nodes.end());
    EXPECT_EQ(seen.size(), path.nodes.size()) << "loop in path";
    EXPECT_EQ(path.nodes.front(), NodeId(0));
    EXPECT_EQ(path.nodes.back(), NodeId(14));
  }
}

TEST(YenTest, NondecreasingDelays) {
  Rng rng(78);
  const Graph graph = RandomConnected(15, 5, rng);
  const auto paths = YenKShortestPaths(graph, NodeId(1), NodeId(9), 8);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].total_delay, paths[i - 1].total_delay);
  }
}

TEST(YenTest, PathsFollowExistingEdgesWithConsistentDelay) {
  Rng rng(79);
  const Graph graph = RandomConnected(12, 4, rng);
  const auto paths = YenKShortestPaths(graph, NodeId(2), NodeId(7), 5);
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    ASSERT_EQ(path.links.size(), path.nodes.size() - 1);
    SimDuration total = SimDuration::Zero();
    for (std::size_t i = 0; i < path.links.size(); ++i) {
      const auto link = graph.FindEdge(path.nodes[i], path.nodes[i + 1]);
      ASSERT_TRUE(link.has_value());
      EXPECT_EQ(*link, path.links[i]);
      total += graph.edge(*link).delay;
    }
    EXPECT_EQ(total, path.total_delay);
  }
}

TEST(YenTest, RespectsDelayOverride) {
  const Graph graph = TwoRoutes();
  // Invert the economics: make 0-1 expensive.
  const LinkDelayFn cost = [&graph](LinkId link) {
    const EdgeSpec& edge = graph.edge(link);
    if ((edge.a == NodeId(0) && edge.b == NodeId(1)) ||
        (edge.a == NodeId(1) && edge.b == NodeId(0))) {
      return SimDuration::Millis(50);
    }
    return edge.delay;
  };
  const auto paths = YenKShortestPaths(graph, NodeId(0), NodeId(3), 1, cost);
  ASSERT_EQ(paths.size(), 1U);
  EXPECT_EQ(paths[0].nodes,
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(3)}));
}

}  // namespace
}  // namespace dcrd
