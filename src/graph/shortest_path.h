// Shortest-path machinery used by every router: one Dijkstra skeleton
// (RunDijkstra), three instantiations, and Yen's spur searches over it.
//   * ShortestDelayTree  — Dijkstra on (possibly estimated) link delays;
//                          D-Tree construction and deadline derivation.
//   * ShortestHopTree    — lexicographic (hop count, delay) Dijkstra;
//                          R-Tree ("most reliable tree") construction.
//   * TimeAwareShortestPathTree — earliest arrival over the time-expanded
//                          graph where a link may only be entered at instants
//                          it is up; the ORACLE's omniscient routing tree.
//
// The first two take an optional per-link cost override so routers can plan
// on *monitored estimates* while the network itself uses ground truth.
#pragma once

#include <functional>
#include <queue>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "graph/graph.h"

namespace dcrd {

// Result of a single-source shortest-path computation. `parent[v]` is the
// predecessor of v on the shortest path from the source (invalid for the
// source itself and for unreachable nodes); `parent_link[v]` the edge used.
struct PathTree {
  NodeId source;
  std::vector<SimDuration> distance;  // SimDuration::Max() if unreachable
  std::vector<NodeId> parent;
  std::vector<LinkId> parent_link;
  std::vector<std::uint32_t> hops;  // hop count along the chosen path

  [[nodiscard]] bool Reachable(NodeId v) const {
    return distance[v.underlying()] != SimDuration::Max();
  }
  // Appends the path from source to v (inclusive) to `out`; nothing when
  // v is unreachable. PathTo returns it as a fresh vector.
  void AppendPathTo(NodeId v, std::vector<NodeId>& out) const;
  [[nodiscard]] std::vector<NodeId> PathTo(NodeId v) const {
    std::vector<NodeId> path;
    AppendPathTo(v, path);
    return path;
  }
  // Links along PathTo(v), in order.
  [[nodiscard]] std::vector<LinkId> LinksTo(NodeId v) const;
};

// Per-link planning delay. Defaults to the graph's ground-truth delay.
using LinkDelayFn = std::function<SimDuration(LinkId)>;
// Link admissibility filter (connectivity.h).
using LinkFilterFn = std::function<bool(LinkId)>;

// The one Dijkstra skeleton; every shortest-path search instantiates it.
// Cost must be totally ordered: `delay(link)` is a link's planning delay,
// `extend(cost, w)` relaxes across a link of delay w, and `admit(link,
// cost)` sees the cost at the node the link leaves. Equal costs pop in
// node-id order, so the tree is deterministic.
//
// With a valid `stop` the search returns right after popping it. Then only
// `stop` and the nodes popped before it hold their final distance, parent,
// parent_link and hops; other entries may be tentative. PathTo(stop) and
// distance[stop] equal the full tree's: a node's parent is fixed when it is
// popped, and the pops before stop's happen in the same order either way.
// An unreachable `stop` runs the search to completion.
template <typename Cost, typename DelayFn, typename AdmitFn,
          typename ExtendFn, typename ToDurationFn>
PathTree RunDijkstra(const Graph& graph, NodeId source, DelayFn delay,
                     AdmitFn admit, Cost zero, Cost infinity, ExtendFn extend,
                     ToDurationFn cost_to_duration, NodeId stop = NodeId()) {
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
    if (node == stop) break;

    for (const Neighbor& nb : graph.neighbors(node)) {
      if (done[nb.peer.underlying()]) continue;
      if (!admit(nb.link, cost)) continue;
      const Cost candidate = extend(cost, delay(nb.link));
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

// RunDijkstra minimising total delay, over any delay and admit functors
// (`admit(link, cost)`); ShortestDelayTree is this over every link.
template <typename DelayFn, typename AdmitFn>
PathTree RunDelayDijkstra(const Graph& graph, NodeId source, DelayFn delay,
                          AdmitFn admit, NodeId stop = NodeId()) {
  return RunDijkstra<SimDuration>(
      graph, source, delay, admit, SimDuration::Zero(), SimDuration::Max(),
      [](SimDuration cost, SimDuration w) { return cost + w; },
      [](SimDuration cost) { return cost; }, stop);
}

// Dijkstra minimising total delay. Deterministic: ties broken by node id.
PathTree ShortestDelayTree(const Graph& graph, NodeId source,
                           const LinkDelayFn& delay = nullptr);

// Dijkstra minimising (hop count, then delay) lexicographically. Produces
// the paper's R-Tree: minimum-hop paths, delay as the deterministic
// tie-break.
PathTree ShortestHopTree(const Graph& graph, NodeId source,
                         const LinkDelayFn& delay = nullptr);

// Whether a link can be *entered* at absolute time `t` (the transmission
// will then occupy it for the link delay).
using LinkUpAtFn = std::function<bool(LinkId, SimTime)>;

// Earliest-arrival tree from `source`, departing at `depart`, over
// ground-truth delays, where every hop must be up at the instant it is
// entered: distance[v] is the arrival at v minus `depart`. This is the
// ORACLE's planning primitive: it sees the ground-truth failure schedule
// including the future. A node's parent is fixed when the search pops it,
// so PathTo(v) is the path a search that stopped at v would return.
PathTree TimeAwareShortestPathTree(const Graph& graph, NodeId source,
                                   SimTime depart, const LinkUpAtFn& up_at);

}  // namespace dcrd
