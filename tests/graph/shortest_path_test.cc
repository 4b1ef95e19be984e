#include "graph/shortest_path.h"

#include <algorithm>
#include <optional>
#include <queue>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"

namespace dcrd {
namespace {

// Diamond: 0-1 (10ms), 0-2 (1ms), 2-1 (2ms), 1-3 (1ms).
// Shortest delay 0->1 is via 2 (3ms); shortest hops 0->1 is direct.
Graph Diamond() {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(2), NodeId(1), SimDuration::Millis(2));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(1));
  return graph;
}

TEST(ShortestDelayTreeTest, PrefersLowerDelayOverFewerHops) {
  const Graph graph = Diamond();
  const PathTree tree = ShortestDelayTree(graph, NodeId(0));
  EXPECT_EQ(tree.distance[1], SimDuration::Millis(3));
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(1)}));
  EXPECT_EQ(tree.distance[3], SimDuration::Millis(4));
  EXPECT_EQ(tree.hops[1], 2U);
}

TEST(ShortestHopTreeTest, PrefersFewerHops) {
  const Graph graph = Diamond();
  const PathTree tree = ShortestHopTree(graph, NodeId(0));
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(1)}));
  EXPECT_EQ(tree.hops[1], 1U);
  EXPECT_EQ(tree.distance[1], SimDuration::Millis(10));
}

TEST(ShortestHopTreeTest, BreaksHopTiesByDelay) {
  // Two 2-hop routes 0->3: via 1 (3ms) and via 2 (2ms).
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(2));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(1));
  const PathTree tree = ShortestHopTree(graph, NodeId(0));
  EXPECT_EQ(tree.PathTo(NodeId(3)),
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(3)}));
}

TEST(PathTreeTest, SourceProperties) {
  const Graph graph = Diamond();
  const PathTree tree = ShortestDelayTree(graph, NodeId(0));
  EXPECT_EQ(tree.distance[0], SimDuration::Zero());
  EXPECT_EQ(tree.PathTo(NodeId(0)), (std::vector<NodeId>{NodeId(0)}));
  EXPECT_TRUE(tree.LinksTo(NodeId(0)).empty());
  EXPECT_FALSE(tree.parent[0].valid());
}

TEST(PathTreeTest, UnreachableNode) {
  Graph graph(3);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  const PathTree tree = ShortestDelayTree(graph, NodeId(0));
  EXPECT_FALSE(tree.Reachable(NodeId(2)));
  EXPECT_TRUE(tree.PathTo(NodeId(2)).empty());
  EXPECT_EQ(tree.distance[2], SimDuration::Max());
}

TEST(PathTreeTest, LinksToMatchesPathTo) {
  const Graph graph = Diamond();
  const PathTree tree = ShortestDelayTree(graph, NodeId(0));
  const auto nodes = tree.PathTo(NodeId(3));
  const auto links = tree.LinksTo(NodeId(3));
  ASSERT_EQ(links.size(), nodes.size() - 1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const EdgeSpec& edge = graph.edge(links[i]);
    EXPECT_TRUE((edge.a == nodes[i] && edge.b == nodes[i + 1]) ||
                (edge.b == nodes[i] && edge.a == nodes[i + 1]));
  }
}

TEST(ShortestPathTest, DelayOverrideChangesRouting) {
  const Graph graph = Diamond();
  // Pretend the 0-2 link is slow: direct 0-1 becomes best.
  const LinkDelayFn slow02 = [&graph](LinkId link) {
    const EdgeSpec& edge = graph.edge(link);
    if ((edge.a == NodeId(0) && edge.b == NodeId(2)) ||
        (edge.a == NodeId(2) && edge.b == NodeId(0))) {
      return SimDuration::Millis(100);
    }
    return edge.delay;
  };
  const PathTree tree = ShortestDelayTree(graph, NodeId(0), slow02);
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(1)}));
}

TEST(ShortestPathTest, LinkFilterExcludesEdges) {
  const Graph graph = Diamond();
  const auto link02 = graph.FindEdge(NodeId(0), NodeId(2));
  const PathTree tree = RunDelayDijkstra(
      graph, NodeId(0), [&](LinkId link) { return graph.edge(link).delay; },
      [&](LinkId link, SimDuration) { return link != *link02; });
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(1)}));
  EXPECT_EQ(tree.PathTo(NodeId(2)),
            (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2)}));
}

TEST(ShortestPathTest, MatchesBruteForceOnRandomGraphs) {
  // Floyd–Warshall cross-check on random overlays.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const Graph graph = RandomConnected(12, 4, rng);
    const std::size_t n = graph.node_count();
    std::vector<std::vector<std::int64_t>> dist(
        n, std::vector<std::int64_t>(n, INT64_MAX / 4));
    for (std::size_t i = 0; i < n; ++i) dist[i][i] = 0;
    for (const EdgeSpec& edge : graph.edges()) {
      const auto a = edge.a.underlying(), b = edge.b.underlying();
      dist[a][b] = std::min(dist[a][b], edge.delay.micros());
      dist[b][a] = dist[a][b];
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
        }
      }
    }
    const PathTree tree = ShortestDelayTree(graph, NodeId(0));
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(tree.distance[v].micros(), dist[0][v])
          << "seed " << seed << " node " << v;
    }
  }
}

TEST(RunDijkstraTest, StopNodeMatchesFullTree) {
  // Odd seeds use equal 10 ms delays, where equal costs are common, so the
  // tie-breaks up to the stop node must match too.
  const DelayRange ranges[] = {
      {}, {SimDuration::Millis(10), SimDuration::Millis(10)}};
  for (const std::size_t nodes : {10, 40, 160}) {
    for (const std::size_t degree : {3, 5, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed);
        const Graph graph =
            RandomConnected(nodes, degree, rng, ranges[seed % 2]);
        // Random bans, tested the way Yen's spur searches test theirs.
        std::vector<char> banned_link(graph.edge_count());
        std::vector<char> banned_node(nodes);
        for (char& ban : banned_link) ban = rng.NextBernoulli(0.2) ? 1 : 0;
        for (char& ban : banned_node) ban = rng.NextBernoulli(0.1) ? 1 : 0;
        const auto admit = [&](LinkId link, SimDuration /*cost*/) {
          if (banned_link[link.underlying()]) return false;
          const EdgeSpec& edge = graph.edge(link);
          return !banned_node[edge.a.underlying()] &&
                 !banned_node[edge.b.underlying()];
        };
        const auto delay = [&graph](LinkId link) {
          return graph.edge(link).delay;
        };
        const NodeId source(static_cast<NodeId::underlying_type>(seed));
        const PathTree full = RunDelayDijkstra(graph, source, delay, admit);
        for (std::size_t v = 0; v < nodes; ++v) {
          const NodeId stop(static_cast<NodeId::underlying_type>(v));
          const PathTree stopped =
              RunDelayDijkstra(graph, source, delay, admit, stop);
          SCOPED_TRACE(testing::Message() << "n=" << nodes << " degree="
                                          << degree << " seed=" << seed
                                          << " stop=" << v);
          ASSERT_EQ(stopped.Reachable(stop), full.Reachable(stop));
          EXPECT_EQ(stopped.PathTo(stop), full.PathTo(stop));
          EXPECT_EQ(stopped.LinksTo(stop), full.LinksTo(stop));
          EXPECT_EQ(stopped.distance[v], full.distance[v]);
          EXPECT_EQ(stopped.hops[v], full.hops[v]);
        }
      }
    }
  }
}

TEST(TimeAwareShortestPathTest, NoFailuresMatchesPlainDijkstra) {
  const Graph graph = Diamond();
  const auto always_up = [](LinkId, SimTime) { return true; };
  const PathTree tree =
      TimeAwareShortestPathTree(graph, NodeId(0), SimTime::Zero(), always_up);
  EXPECT_EQ(tree.PathTo(NodeId(3)),
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(1), NodeId(3)}));
  EXPECT_EQ(tree.distance[3], SimDuration::Millis(4));
  const PathTree plain = ShortestDelayTree(graph, NodeId(0));
  EXPECT_EQ(tree.parent, plain.parent);
  EXPECT_EQ(tree.distance, plain.distance);
}

TEST(TimeAwareShortestPathTest, AvoidsLinkFailedAtEntryTime) {
  const Graph graph = Diamond();
  const auto link02 = *graph.FindEdge(NodeId(0), NodeId(2));
  // 0-2 is down exactly at departure: the plan must go direct.
  const auto up_at = [&](LinkId link, SimTime t) {
    return !(link == link02 && t < SimTime::FromMicros(500));
  };
  const PathTree tree =
      TimeAwareShortestPathTree(graph, NodeId(0), SimTime::Zero(), up_at);
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(1)}));
}

TEST(TimeAwareShortestPathTest, AvoidsLinkThatWillFailMidFlight) {
  // Path 0-2-1: link 2-1 would be entered at t=1ms; fail it then.
  const Graph graph = Diamond();
  const auto link21 = *graph.FindEdge(NodeId(2), NodeId(1));
  const auto up_at = [&](LinkId link, SimTime t) {
    return !(link == link21 && t >= SimTime::FromMicros(900) &&
             t <= SimTime::FromMicros(1100));
  };
  const PathTree tree =
      TimeAwareShortestPathTree(graph, NodeId(0), SimTime::Zero(), up_at);
  EXPECT_EQ(tree.PathTo(NodeId(1)),
            (std::vector<NodeId>{NodeId(0), NodeId(1)}));
}

TEST(TimeAwareShortestPathTest, ReturnsNulloptWhenCut) {
  // A cut destination is unreachable in the tree.
  Graph graph(2);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  const auto never_up = [](LinkId, SimTime) { return false; };
  const PathTree tree =
      TimeAwareShortestPathTree(graph, NodeId(0), SimTime::Zero(), never_up);
  EXPECT_FALSE(tree.Reachable(NodeId(1)));
  EXPECT_TRUE(tree.PathTo(NodeId(1)).empty());
}

TEST(TimeAwareShortestPathTest, DepartureTimeShiftsArrival) {
  // Links are tested at absolute entry instants, and distance is the
  // arrival minus the departure.
  const Graph graph = Diamond();
  const SimTime depart = SimTime::FromMicros(5'000'000);
  SimTime first_entry = SimTime::Max();
  const auto up_at = [&](LinkId, SimTime t) {
    first_entry = std::min(first_entry, t);
    return true;
  };
  const PathTree tree =
      TimeAwareShortestPathTree(graph, NodeId(0), depart, up_at);
  EXPECT_EQ(first_entry, depart);
  EXPECT_EQ(tree.distance[3], SimDuration::Millis(4));
}

// The per-destination, early-exit earliest-arrival search the ORACLE ran
// before it planned one tree per message: the reference the tree must
// reproduce destination by destination.
struct ReferencePath {
  std::vector<NodeId> nodes;  // source..dest inclusive
  SimTime arrival;
};

std::optional<ReferencePath> ReferenceTimeAwarePath(const Graph& graph,
                                                    NodeId source, NodeId dest,
                                                    SimTime depart,
                                                    const LinkUpAtFn& up_at) {
  const std::size_t n = graph.node_count();
  std::vector<SimTime> arrival(n, SimTime::Max());
  std::vector<NodeId> parent(n, NodeId());
  struct QueueEntry {
    SimTime at;
    NodeId node;
    bool operator>(const QueueEntry& other) const {
      if (at != other.at) return at > other.at;
      return node > other.node;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue;
  arrival[source.underlying()] = depart;
  queue.push({depart, source});
  std::vector<bool> done(n, false);
  while (!queue.empty()) {
    const auto [at, node] = queue.top();
    queue.pop();
    if (done[node.underlying()]) continue;
    done[node.underlying()] = true;
    if (node == dest) break;
    for (const Neighbor& nb : graph.neighbors(node)) {
      if (done[nb.peer.underlying()]) continue;
      if (!up_at(nb.link, at)) continue;
      const SimTime t = at + graph.edge(nb.link).delay;
      if (t < arrival[nb.peer.underlying()]) {
        arrival[nb.peer.underlying()] = t;
        parent[nb.peer.underlying()] = node;
        queue.push({t, nb.peer});
      }
    }
  }
  if (arrival[dest.underlying()] == SimTime::Max()) return std::nullopt;
  ReferencePath path{{}, arrival[dest.underlying()]};
  for (NodeId cur = dest; cur != source; cur = parent[cur.underlying()]) {
    path.nodes.push_back(cur);
  }
  path.nodes.push_back(source);
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

TEST(TimeAwareShortestPathTreeTest, MatchesPerDestinationSearch) {
  // The paper's 10-50 ms delays make equal arrivals rare, so odd seeds use
  // equal 10 ms delays, where they are common: tie-breaks must match too.
  const DelayRange ranges[] = {
      {}, {SimDuration::Millis(10), SimDuration::Millis(10)}};
  for (const std::size_t nodes : {10, 40, 160}) {
    for (const std::size_t degree : {3, 5, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const int outage_epochs : {1, 3}) {
          Rng rng(seed);
          const Graph graph =
              RandomConnected(nodes, degree, rng, ranges[seed % 2]);
          const FailureSchedule failures(seed, 0.1, SimDuration::Seconds(1),
                                         outage_epochs);
          const NodeFailureSchedule node_failures(seed + 100, 0.05);
          // The ORACLE's admissibility test.
          const LinkUpAtFn up_at = [&](LinkId link, SimTime t) {
            const EdgeSpec& edge = graph.edge(link);
            return failures.IsUp(link, t) && node_failures.IsUp(edge.a, t) &&
                   node_failures.IsUp(edge.b, t);
          };
          const NodeId source(static_cast<NodeId::underlying_type>(seed));
          // Plus one departure at which every link out of the source is
          // down, so the tree reaches the source alone.
          SimTime cut = SimTime::FromMicros(250'000);
          const auto source_cut = [&](SimTime t) {
            for (const Neighbor& nb : graph.neighbors(source)) {
              if (up_at(nb.link, t)) return false;
            }
            return true;
          };
          for (int epoch = 0; epoch < 1000 && !source_cut(cut); ++epoch) {
            cut += SimDuration::Seconds(1);
          }
          ASSERT_TRUE(source_cut(cut));
          for (const SimTime depart :
               {SimTime::Zero(), SimTime::FromMicros(500'000),
                SimTime::FromMicros(7'000'000),
                SimTime::FromMicros(61'250'000), cut}) {
            const PathTree tree =
                TimeAwareShortestPathTree(graph, source, depart, up_at);
            for (std::size_t v = 0; v < nodes; ++v) {
              const NodeId dest(static_cast<NodeId::underlying_type>(v));
              const auto reference =
                  ReferenceTimeAwarePath(graph, source, dest, depart, up_at);
              SCOPED_TRACE(testing::Message()
                           << "n=" << nodes << " degree=" << degree
                           << " seed=" << seed << " outage=" << outage_epochs
                           << " depart=" << depart.micros() << " dest=" << v);
              ASSERT_EQ(tree.Reachable(dest), reference.has_value());
              if (depart == cut) {
                EXPECT_EQ(tree.Reachable(dest), dest == source);
              }
              if (!reference.has_value()) continue;
              EXPECT_EQ(tree.PathTo(dest), reference->nodes);
              EXPECT_EQ(tree.distance[v], reference->arrival - depart);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dcrd
