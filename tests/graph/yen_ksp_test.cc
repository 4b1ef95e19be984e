#include "graph/yen_ksp.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"

namespace dcrd {
namespace {

// Yen's algorithm as it was before its spur searches moved onto flat ban
// arrays, a per-call delay table and early exit: full trees over
// std::function delays and filters, bans in hash sets. The reference the
// optimised search must reproduce path for path.
WeightedPath ReferenceMakePath(const PathTree& tree, NodeId dest) {
  return WeightedPath{tree.PathTo(dest), tree.LinksTo(dest),
                      tree.distance[dest.underlying()]};
}

struct ReferenceCandidateLess {
  bool operator()(const WeightedPath& a, const WeightedPath& b) const {
    if (a.total_delay != b.total_delay) return a.total_delay < b.total_delay;
    return a.nodes < b.nodes;
  }
};

std::vector<WeightedPath> ReferenceYen(const Graph& graph, NodeId source,
                                       NodeId dest, std::size_t k,
                                       const LinkDelayFn& delay = nullptr) {
  std::vector<WeightedPath> result;
  if (k == 0) return result;

  const PathTree first_tree = ShortestDelayTree(graph, source, delay);
  if (!first_tree.Reachable(dest)) return result;
  result.push_back(ReferenceMakePath(first_tree, dest));

  std::set<WeightedPath, ReferenceCandidateLess> candidates;

  while (result.size() < k) {
    const WeightedPath& previous = result.back();
    SimDuration root_delay = SimDuration::Zero();
    for (std::size_t spur_index = 0; spur_index + 1 < previous.nodes.size();
         ++spur_index) {
      const NodeId spur_node = previous.nodes[spur_index];
      if (spur_index > 0) {
        const LinkId root_link = previous.links[spur_index - 1];
        root_delay += delay ? delay(root_link) : graph.edge(root_link).delay;
      }

      std::unordered_set<LinkId::underlying_type> banned_links;
      for (const WeightedPath& found : result) {
        if (found.nodes.size() > spur_index &&
            std::equal(previous.nodes.begin(),
                       previous.nodes.begin() +
                           static_cast<std::ptrdiff_t>(spur_index + 1),
                       found.nodes.begin())) {
          banned_links.insert(found.links[spur_index].underlying());
        }
      }
      std::unordered_set<NodeId::underlying_type> banned_nodes;
      for (std::size_t i = 0; i < spur_index; ++i) {
        banned_nodes.insert(previous.nodes[i].underlying());
      }

      const auto admit = [&](LinkId link, SimDuration) {
        if (banned_links.contains(link.underlying())) return false;
        const EdgeSpec& edge = graph.edge(link);
        return !banned_nodes.contains(edge.a.underlying()) &&
               !banned_nodes.contains(edge.b.underlying());
      };

      const PathTree spur_tree = RunDelayDijkstra(
          graph, spur_node,
          [&](LinkId link) {
            return delay ? delay(link) : graph.edge(link).delay;
          },
          admit);
      if (!spur_tree.Reachable(dest)) continue;

      WeightedPath total = ReferenceMakePath(spur_tree, dest);
      total.nodes.insert(total.nodes.begin(), previous.nodes.begin(),
                         previous.nodes.begin() +
                             static_cast<std::ptrdiff_t>(spur_index));
      total.links.insert(total.links.begin(), previous.links.begin(),
                         previous.links.begin() +
                             static_cast<std::ptrdiff_t>(spur_index));
      total.total_delay += root_delay;
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }

    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

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

TEST(YenTest, MatchesReferenceImplementation) {
  // The graph's own 10-50 ms delays make equal totals rare; the all-equal
  // override makes ties common, so tie-breaks must match too.
  const LinkDelayFn equal = [](LinkId) { return SimDuration::Millis(10); };
  for (const std::size_t nodes : {10, 40, 160}) {
    for (const std::size_t degree : {3, 5, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed);
        const Graph graph = RandomConnected(nodes, degree, rng);
        for (int pair = 0; pair < 4; ++pair) {
          const NodeId source(
              static_cast<NodeId::underlying_type>(rng.NextBounded(nodes)));
          NodeId dest(
              static_cast<NodeId::underlying_type>(rng.NextBounded(nodes)));
          if (dest == source) {
            dest = NodeId(static_cast<NodeId::underlying_type>(
                (source.underlying() + 1) % nodes));
          }
          for (const std::size_t k : {1, 2, 5}) {
            for (const bool ties : {false, true}) {
              const LinkDelayFn delay = ties ? equal : nullptr;
              SCOPED_TRACE(testing::Message()
                           << "n=" << nodes << " degree=" << degree
                           << " seed=" << seed << " " << source << "->"
                           << dest << " k=" << k << " ties=" << ties);
              const auto expected =
                  ReferenceYen(graph, source, dest, k, delay);
              const auto actual =
                  YenKShortestPaths(graph, source, dest, k, delay);
              ASSERT_EQ(actual.size(), expected.size());
              for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(actual[i].nodes, expected[i].nodes) << "path " << i;
                EXPECT_EQ(actual[i].links, expected[i].links) << "path " << i;
                EXPECT_EQ(actual[i].total_delay, expected[i].total_delay)
                    << "path " << i;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dcrd
