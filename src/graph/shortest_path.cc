#include "graph/shortest_path.h"

#include <algorithm>

namespace dcrd {

void PathTree::AppendPathTo(NodeId v, std::vector<NodeId>& out) const {
  if (!Reachable(v)) return;
  const std::size_t begin = out.size();
  for (NodeId cur = v; cur.valid(); cur = parent[cur.underlying()]) {
    out.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
}

std::vector<LinkId> PathTree::LinksTo(NodeId v) const {
  std::vector<LinkId> links;
  for (const NodeId node : PathTo(v)) {
    if (node != source) links.push_back(parent_link[node.underlying()]);
  }
  return links;
}

namespace {

// Admits every link.
constexpr auto kAdmitAll = [](LinkId, const auto& /*cost*/) { return true; };

// `delay` when set, else the graph's ground-truth delay.
auto PlanningDelay(const Graph& graph, const LinkDelayFn& delay) {
  return [&graph, &delay](LinkId link) {
    return delay ? delay(link) : graph.edge(link).delay;
  };
}

}  // namespace

PathTree ShortestDelayTree(const Graph& graph, NodeId source,
                           const LinkDelayFn& delay) {
  return RunDelayDijkstra(graph, source, PlanningDelay(graph, delay),
                          kAdmitAll);
}

PathTree ShortestHopTree(const Graph& graph, NodeId source,
                         const LinkDelayFn& delay) {
  using Cost = std::pair<std::uint32_t, SimDuration>;  // (hops, delay)
  const Cost zero{0, SimDuration::Zero()};
  const Cost infinity{UINT32_MAX, SimDuration::Max()};
  return RunDijkstra<Cost>(
      graph, source, PlanningDelay(graph, delay), kAdmitAll, zero, infinity,
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
      graph, source,
      [&graph](LinkId link) { return graph.edge(link).delay; }, up_at, depart,
      SimTime::Max(),
      [](SimTime at, SimDuration w) { return at + w; },
      [depart](SimTime at) { return at - depart; });
}

}  // namespace dcrd
