// Shortest-path machinery used by every router: one Dijkstra skeleton,
// three instantiations.
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
  // Path from source to v as a node sequence (inclusive). Empty when
  // unreachable.
  [[nodiscard]] std::vector<NodeId> PathTo(NodeId v) const;
  // Links along PathTo(v), in order.
  [[nodiscard]] std::vector<LinkId> LinksTo(NodeId v) const;
};

// Per-link planning delay. Defaults to the graph's ground-truth delay.
using LinkDelayFn = std::function<SimDuration(LinkId)>;
// Link admissibility filter (e.g. "exclude these Yen spur edges").
using LinkFilterFn = std::function<bool(LinkId)>;

// Dijkstra minimising total delay. Deterministic: ties broken by node id.
PathTree ShortestDelayTree(const Graph& graph, NodeId source,
                           const LinkDelayFn& delay = nullptr,
                           const LinkFilterFn& admit = nullptr);

// Dijkstra minimising (hop count, then delay) lexicographically. Produces
// the paper's R-Tree: minimum-hop paths, delay as the deterministic
// tie-break.
PathTree ShortestHopTree(const Graph& graph, NodeId source,
                         const LinkDelayFn& delay = nullptr,
                         const LinkFilterFn& admit = nullptr);

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
