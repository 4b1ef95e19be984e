#include "graph/yen_ksp.h"

#include <algorithm>
#include <set>
#include <unordered_set>

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

  const PathTree first_tree = ShortestDelayTree(graph, source, delay);
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
        const LinkId root_link = previous.links[spur_index - 1];
        root_delay += delay ? delay(root_link) : graph.edge(root_link).delay;
      }

      // Links to ban: the edge each already-found path with the same prefix
      // takes out of the spur node.
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
      // Nodes on the root path (except the spur node) must not reappear —
      // this is what keeps paths loopless.
      std::unordered_set<NodeId::underlying_type> banned_nodes;
      for (std::size_t i = 0; i < spur_index; ++i) {
        banned_nodes.insert(previous.nodes[i].underlying());
      }

      const auto admit = [&](LinkId link) {
        if (banned_links.contains(link.underlying())) return false;
        const EdgeSpec& edge = graph.edge(link);
        return !banned_nodes.contains(edge.a.underlying()) &&
               !banned_nodes.contains(edge.b.underlying());
      };

      const PathTree spur_tree =
          ShortestDelayTree(graph, spur_node, delay, admit);
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
