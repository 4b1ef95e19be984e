#include "graph/shortest_path.h"

#include <algorithm>
#include <queue>

namespace dcrd {

std::vector<NodeId> PathTree::PathTo(NodeId v) const {
  if (!Reachable(v)) return {};
  std::vector<NodeId> path;
  for (NodeId cur = v; cur.valid(); cur = parent[cur.underlying()]) {
    path.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<LinkId> PathTree::LinksTo(NodeId v) const {
  if (!Reachable(v)) return {};
  std::vector<LinkId> links;
  for (NodeId cur = v; cur != source; cur = parent[cur.underlying()]) {
    links.push_back(parent_link[cur.underlying()]);
  }
  std::reverse(links.begin(), links.end());
  return links;
}

namespace {

// The one Dijkstra skeleton. Cost must be totally ordered; `extend(cost, w)`
// relaxes across a link of delay w, and `admit(link, cost)` sees the cost at
// the node the link leaves.
template <typename Cost, typename AdmitFn, typename ExtendFn,
          typename ToDurationFn>
PathTree RunDijkstra(const Graph& graph, NodeId source,
                     const LinkDelayFn& delay, AdmitFn admit, Cost zero,
                     Cost infinity, ExtendFn extend,
                     ToDurationFn cost_to_duration) {
  const std::size_t n = graph.node_count();
  DCRD_CHECK(source.underlying() < n);

  std::vector<Cost> best(n, infinity);
  PathTree tree;
  tree.source = source;
  tree.distance.assign(n, SimDuration::Max());
  tree.parent.assign(n, NodeId());
  tree.parent_link.assign(n, LinkId());
  tree.hops.assign(n, 0);

  struct QueueEntry {
    Cost cost;
    NodeId node;
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return node > other.node;  // deterministic tie-break
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue;

  best[source.underlying()] = zero;
  queue.push({zero, source});
  std::vector<bool> done(n, false);

  while (!queue.empty()) {
    const auto [cost, node] = queue.top();
    queue.pop();
    if (done[node.underlying()]) continue;
    done[node.underlying()] = true;

    for (const Neighbor& nb : graph.neighbors(node)) {
      if (done[nb.peer.underlying()]) continue;
      if (!admit(nb.link, cost)) continue;
      const SimDuration w =
          delay ? delay(nb.link) : graph.edge(nb.link).delay;
      const Cost candidate = extend(cost, w);
      if (candidate < best[nb.peer.underlying()]) {
        best[nb.peer.underlying()] = candidate;
        tree.parent[nb.peer.underlying()] = node;
        tree.parent_link[nb.peer.underlying()] = nb.link;
        tree.hops[nb.peer.underlying()] = tree.hops[node.underlying()] + 1;
        queue.push({candidate, nb.peer});
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (best[i] != infinity) tree.distance[i] = cost_to_duration(best[i]);
  }
  tree.distance[source.underlying()] = SimDuration::Zero();
  return tree;
}

// A cost-blind admit over `filter`; a null filter admits every link.
auto FilterAdmit(const LinkFilterFn& filter) {
  return [&filter](LinkId link, const auto& /*cost*/) {
    return !filter || filter(link);
  };
}

}  // namespace

PathTree ShortestDelayTree(const Graph& graph, NodeId source,
                           const LinkDelayFn& delay,
                           const LinkFilterFn& admit) {
  return RunDijkstra<SimDuration>(
      graph, source, delay, FilterAdmit(admit), SimDuration::Zero(),
      SimDuration::Max(),
      [](SimDuration cost, SimDuration w) { return cost + w; },
      [](SimDuration cost) { return cost; });
}

PathTree ShortestHopTree(const Graph& graph, NodeId source,
                         const LinkDelayFn& delay, const LinkFilterFn& admit) {
  using Cost = std::pair<std::uint32_t, SimDuration>;  // (hops, delay)
  const Cost zero{0, SimDuration::Zero()};
  const Cost infinity{UINT32_MAX, SimDuration::Max()};
  return RunDijkstra<Cost>(
      graph, source, delay, FilterAdmit(admit), zero, infinity,
      [](Cost cost, SimDuration w) {
        return Cost{cost.first + 1, cost.second + w};
      },
      [](Cost cost) { return cost.second; });
}

PathTree TimeAwareShortestPathTree(const Graph& graph, NodeId source,
                                   SimTime depart, const LinkUpAtFn& up_at) {
  // The cost is the arrival instant, and a link is admitted only if it is
  // up at the instant the packet enters it. We do not model waiting at a
  // node for a link to recover: the ORACLE, like the paper's, picks a path
  // that works "as is" at traversal times.
  return RunDijkstra<SimTime>(
      graph, source, /*delay=*/nullptr, up_at, depart, SimTime::Max(),
      [](SimTime at, SimDuration w) { return at + w; },
      [depart](SimTime at) { return at - depart; });
}

}  // namespace dcrd
