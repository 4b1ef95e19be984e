#include "graph/yen_ksp.h"

#include <algorithm>
#include <set>

namespace dcrd {

namespace {

// A tree's distance is the exact (integer-microsecond) sum of the delays
// along its path, so it is the path's total.
WeightedPath MakePath(const PathTree& tree, NodeId dest) {
  return WeightedPath{tree.PathTo(dest), tree.LinksTo(dest),
                      tree.distance[dest.underlying()]};
}

// Ordering for the candidate set: by delay, then lexicographic node ids so
// the algorithm is deterministic.
struct CandidateLess {
  bool operator()(const WeightedPath& a, const WeightedPath& b) const {
    if (a.total_delay != b.total_delay) return a.total_delay < b.total_delay;
    return a.nodes < b.nodes;
  }
};

}  // namespace

std::vector<WeightedPath> YenKShortestPaths(const Graph& graph, NodeId source,
                                            NodeId dest, std::size_t k,
                                            const LinkDelayFn& delay) {
  std::vector<WeightedPath> result;
  if (k == 0) return result;

  // Every link's planning delay, read once: `delay` is a pure function of
  // the link, and the spur searches relax each link many times.
  std::vector<SimDuration> link_delay(graph.edge_count());
  for (std::size_t i = 0; i < link_delay.size(); ++i) {
    const LinkId link(static_cast<LinkId::underlying_type>(i));
    link_delay[i] = delay ? delay(link) : graph.edge(link).delay;
  }
  const auto delay_of = [&link_delay](LinkId link) {
    return link_delay[link.underlying()];
  };

  // A spur search's bans, set before it and cleared after it; none are
  // set outside one.
  std::vector<char> banned_link(graph.edge_count(), 0);
  std::vector<char> banned_node(graph.node_count(), 0);
  const auto admit = [&](LinkId link, SimDuration /*cost*/) {
    if (banned_link[link.underlying()]) return false;
    const EdgeSpec& edge = graph.edge(link);
    return !banned_node[edge.a.underlying()] &&
           !banned_node[edge.b.underlying()];
  };

  // Every search stops once it pops `dest`: only dest's path is read.
  const PathTree first_tree =
      RunDelayDijkstra(graph, source, delay_of, admit, dest);
  if (!first_tree.Reachable(dest)) return result;
  result.push_back(MakePath(first_tree, dest));

  std::set<WeightedPath, CandidateLess> candidates;

  while (result.size() < k) {
    const WeightedPath& previous = result.back();
    // Each prefix of the previous path becomes a spur root; `root_delay` is
    // the delay of the prefix's links.
    SimDuration root_delay = SimDuration::Zero();
    for (std::size_t spur_index = 0; spur_index + 1 < previous.nodes.size();
         ++spur_index) {
      const NodeId spur_node = previous.nodes[spur_index];
      if (spur_index > 0) {
        root_delay += delay_of(previous.links[spur_index - 1]);
      }

      // Links to ban: the edge each already-found path with the same prefix
      // takes out of the spur node.
      for (const WeightedPath& found : result) {
        if (found.nodes.size() > spur_index &&
            std::equal(previous.nodes.begin(),
                       previous.nodes.begin() +
                           static_cast<std::ptrdiff_t>(spur_index + 1),
                       found.nodes.begin())) {
          banned_link[found.links[spur_index].underlying()] = 1;
        }
      }
      // Nodes on the root path (except the spur node) must not reappear —
      // this is what keeps paths loopless.
      for (std::size_t i = 0; i < spur_index; ++i) {
        banned_node[previous.nodes[i].underlying()] = 1;
      }

      const PathTree spur_tree =
          RunDelayDijkstra(graph, spur_node, delay_of, admit, dest);

      // Every banned link leaves the spur node.
      for (const Neighbor& nb : graph.neighbors(spur_node)) {
        banned_link[nb.link.underlying()] = 0;
      }
      for (std::size_t i = 0; i < spur_index; ++i) {
        banned_node[previous.nodes[i].underlying()] = 0;
      }
      if (!spur_tree.Reachable(dest)) continue;

      WeightedPath total = MakePath(spur_tree, dest);
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

}  // namespace dcrd
