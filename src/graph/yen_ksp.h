// Yen's algorithm for the K shortest loopless paths.
//
// The Multipath baseline (Section IV-B) sends each packet down the shortest
// delay path plus "another path selected from the top 5 shortest delay paths
// that has the fewest overlapping links with the shortest delay path". Yen's
// algorithm supplies exactly that top-5 list.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace dcrd {

struct WeightedPath {
  std::vector<NodeId> nodes;  // source..dest inclusive
  std::vector<LinkId> links;  // nodes.size() - 1 entries
  SimDuration total_delay;

  friend bool operator==(const WeightedPath&, const WeightedPath&) = default;
};

// Up to `k` loopless source->dest paths in nondecreasing delay order (fewer
// if the graph does not contain k distinct paths). Deterministic for a given
// graph. `delay` overrides ground-truth link delays when planning on
// monitored estimates; it is read once per link per call, so it must be a
// pure function of the link.
std::vector<WeightedPath> YenKShortestPaths(const Graph& graph, NodeId source,
                                            NodeId dest, std::size_t k,
                                            const LinkDelayFn& delay = nullptr);

}  // namespace dcrd
