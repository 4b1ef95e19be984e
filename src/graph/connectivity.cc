#include "graph/connectivity.h"

#include <deque>

namespace dcrd {

std::vector<bool> ReachableFrom(const Graph& graph, NodeId source,
                                const LinkFilterFn& admit) {
  std::vector<bool> seen(graph.node_count(), false);
  DCRD_CHECK(source.underlying() < graph.node_count());
  std::deque<NodeId> frontier{source};
  seen[source.underlying()] = true;
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (const Neighbor& nb : graph.neighbors(node)) {
      if (seen[nb.peer.underlying()]) continue;
      if (admit && !admit(nb.link)) continue;
      seen[nb.peer.underlying()] = true;
      frontier.push_back(nb.peer);
    }
  }
  return seen;
}

bool IsConnected(const Graph& graph, const LinkFilterFn& admit) {
  if (graph.node_count() == 0) return true;
  const auto seen = ReachableFrom(graph, NodeId(0), admit);
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

}  // namespace dcrd
