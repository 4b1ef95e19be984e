// Tree-based baselines (paper Section IV-B).
//
//  * Most Reliable Tree (R-Tree): per-publisher tree of shortest-hop-count
//    paths — fewer overlay hops means fewer chances for a 1-second failure
//    to cut the path, hence "most reliable".
//  * Shortest-Delay-Path Tree (D-Tree): per-publisher tree of shortest-delay
//    paths over the monitored delay estimates.
//
// Both are rebuilt only at monitoring epochs and never reroute: a hop that
// stays silent for m transmissions loses the packet for the whole subtree.
#pragma once

#include <vector>

#include "graph/shortest_path.h"
#include "routing/source_routed.h"

namespace dcrd {

enum class TreeKind {
  kShortestHop,    // R-Tree
  kShortestDelay,  // D-Tree
};

class TreeRouter final : public SourceRoutedRouter {
 public:
  TreeRouter(RouterContext context, TreeKind kind)
      : SourceRoutedRouter(context), kind_(kind) {}

  [[nodiscard]] std::string_view name() const override {
    return kind_ == TreeKind::kShortestHop ? "R-Tree" : "D-Tree";
  }

  // Exposes the current tree for a topic (tests assert tree shape).
  [[nodiscard]] const PathTree& TreeFor(TopicId topic) const {
    return trees_[topic.underlying()];
  }

 protected:
  void RebuildRoutes() override;
  void PlanRoutes(const Message& message, RouteSet& routes) override;

 private:
  TreeKind kind_;
  std::vector<PathTree> trees_;  // indexed by topic id
};

}  // namespace dcrd
