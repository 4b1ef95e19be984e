#include "graph/topology.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/connectivity.h"

namespace dcrd {

SimDuration DrawLinkDelay(Rng& rng, const DelayRange& range) {
  return SimDuration::Micros(
      rng.NextInRange(range.min.micros(), range.max.micros()));
}

Graph FullMesh(std::size_t node_count, Rng& rng, const DelayRange& range) {
  Graph graph(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    for (std::size_t j = i + 1; j < node_count; ++j) {
      graph.AddEdge(NodeId(static_cast<NodeId::underlying_type>(i)),
                    NodeId(static_cast<NodeId::underlying_type>(j)),
                    DrawLinkDelay(rng, range));
    }
  }
  return graph;
}

Graph RandomConnected(std::size_t node_count, std::size_t target_degree,
                      Rng& rng, const DelayRange& range) {
  DCRD_CHECK(node_count >= 3);
  DCRD_CHECK(target_degree >= 2);
  DCRD_CHECK(target_degree < node_count);
  Graph graph(node_count);

  // Random Hamiltonian ring: connectivity plus degree 2 for everyone.
  std::vector<std::uint32_t> order(node_count);
  std::iota(order.begin(), order.end(), 0U);
  rng.Shuffle(order);
  for (std::size_t i = 0; i < node_count; ++i) {
    graph.AddEdge(NodeId(order[i]), NodeId(order[(i + 1) % node_count]),
                  DrawLinkDelay(rng, range));
  }

  // Greedy random augmentation: repeatedly pick a random pair of distinct
  // below-target nodes without an existing edge. The candidate pool shrinks
  // monotonically, so this terminates; a small residue of nodes may end one
  // below target when the last below-target nodes are already adjacent.
  //
  // The pairs are ranked row-major over the ascending open list: row i
  // pairs open[i] with each later open node it is not adjacent to. Each
  // row's pair count is its later open nodes minus its later open
  // neighbours, so the draw walks to its pair without listing them all.
  std::vector<std::uint32_t> open;  // nodes with degree < target
  std::vector<std::ptrdiff_t> position(node_count);  // index in open, or -1
  std::vector<std::uint64_t> row_pairs;
  std::vector<char> adjacent(node_count, 0);
  const auto refresh_open = [&] {
    open.clear();
    for (std::uint32_t v = 0; v < node_count; ++v) {
      position[v] = -1;
      if (graph.degree(NodeId(v)) < target_degree) {
        position[v] = static_cast<std::ptrdiff_t>(open.size());
        open.push_back(v);
      }
    }
  };
  refresh_open();
  while (open.size() >= 2) {
    row_pairs.assign(open.size(), 0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      std::uint64_t later_neighbours = 0;
      for (const Neighbor& nb : graph.neighbors(NodeId(open[i]))) {
        if (position[nb.peer.underlying()] > static_cast<std::ptrdiff_t>(i)) {
          ++later_neighbours;
        }
      }
      row_pairs[i] = open.size() - i - 1 - later_neighbours;
      total += row_pairs[i];
    }
    if (total == 0) break;
    std::uint64_t pick = rng.NextBounded(total);
    std::size_t row = 0;
    while (pick >= row_pairs[row]) pick -= row_pairs[row++];
    const NodeId a(open[row]);
    for (const Neighbor& nb : graph.neighbors(a)) {
      adjacent[nb.peer.underlying()] = 1;
    }
    std::size_t column = row + 1;
    for (;; ++column) {
      if (adjacent[open[column]]) continue;
      if (pick == 0) break;
      --pick;
    }
    for (const Neighbor& nb : graph.neighbors(a)) {
      adjacent[nb.peer.underlying()] = 0;
    }
    graph.AddEdge(a, NodeId(open[column]), DrawLinkDelay(rng, range));
    refresh_open();
  }

  DCRD_CHECK(IsConnected(graph));
  return graph;
}

Graph Ring(std::size_t node_count, SimDuration delay) {
  DCRD_CHECK(node_count >= 3);
  Graph graph(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    graph.AddEdge(NodeId(static_cast<NodeId::underlying_type>(i)),
                  NodeId(static_cast<NodeId::underlying_type>(
                      (i + 1) % node_count)),
                  delay);
  }
  return graph;
}

Graph Line(std::size_t node_count, SimDuration delay) {
  DCRD_CHECK(node_count >= 2);
  Graph graph(node_count);
  for (std::size_t i = 0; i + 1 < node_count; ++i) {
    graph.AddEdge(NodeId(static_cast<NodeId::underlying_type>(i)),
                  NodeId(static_cast<NodeId::underlying_type>(i + 1)), delay);
  }
  return graph;
}

Graph Star(std::size_t leaf_count, SimDuration delay) {
  DCRD_CHECK(leaf_count >= 1);
  Graph graph(leaf_count + 1);
  for (std::size_t i = 1; i <= leaf_count; ++i) {
    graph.AddEdge(NodeId(0),
                  NodeId(static_cast<NodeId::underlying_type>(i)), delay);
  }
  return graph;
}

}  // namespace dcrd
