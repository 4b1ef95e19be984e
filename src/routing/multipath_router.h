// Multipath baseline (paper Section IV-B, item 4), generalised to k paths.
//
// "Publishers send duplicate packets for every subscriber ... a single
// packet to a single subscriber is sent through two paths: one shortest
// delay path and another path that [is] selected from the top 5 shortest
// delay paths that has the fewest overlapping links with the shortest delay
// path."
//
// `path_count = 2` (the default) is exactly the paper's baseline. Larger
// counts greedily add, from the Yen top-5, the candidate sharing the fewest
// links with everything already selected (ties broken toward lower delay) —
// the redundancy/traffic trade-off the ext4_redundancy bench sweeps.
//
// Path sets are planned from monitored estimates at every epoch; like the
// trees, Multipath never reroutes after a hop gives up. A path set depends
// only on (publisher, subscriber) and the α̂ vector, and LinkMonitor
// measures every α̂ as the link's true delay, so an epoch whose α̂ equal
// the last plan's bit for bit reuses that plan's path sets.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/yen_ksp.h"
#include "routing/source_routed.h"

namespace dcrd {

class MultipathRouter final : public SourceRoutedRouter {
 public:
  // How many shortest paths Yen's algorithm ranks when picking diversity
  // paths; the paper uses 5.
  static constexpr std::size_t kCandidatePaths = 5;

  explicit MultipathRouter(RouterContext context, std::size_t path_count = 2)
      : SourceRoutedRouter(context), path_count_(path_count) {
    DCRD_CHECK(path_count_ >= 1);
    DCRD_CHECK(path_count_ <= kCandidatePaths);
  }

  [[nodiscard]] std::string_view name() const override { return "Multipath"; }

  // Current path set for (topic, subscriber): element 0 is the shortest
  // monitored-delay path; fewer than path_count entries when the graph
  // lacks alternatives. Exposed for tests; CHECK-fails when the subscriber
  // has no path set (not subscribed at the last rebuild).
  [[nodiscard]] const std::vector<std::vector<NodeId>>& PathsFor(
      TopicId topic, NodeId subscriber) const {
    const auto it = paths_[topic.underlying()].find(subscriber);
    DCRD_CHECK(it != paths_[topic.underlying()].end())
        << subscriber << " has no path set for " << topic;
    return *it->second;
  }

 protected:
  void RebuildRoutes() override;
  void PlanRoutes(const Message& message, RouteSet& routes) override;

 private:
  using PathSet = std::vector<std::vector<NodeId>>;

  // Yen's top candidates from `publisher` to `subscriber` under view(),
  // then the greedy diversity selection.
  [[nodiscard]] PathSet PlanPaths(NodeId publisher, NodeId subscriber) const;

  std::size_t path_count_;
  // Path sets by (publisher << 32 | subscriber), all planned under
  // `planned_alpha_`; a rebuild whose α̂ differ anywhere replans them all.
  std::unordered_map<std::uint64_t, PathSet> planned_;
  std::vector<SimDuration> planned_alpha_;
  // This epoch's path sets, pointing into planned_. Keyed by subscriber id
  // (not list index): the subscription table may mutate under churn
  // between rebuilds; a subscriber joining mid-epoch simply has no path set
  // until the next rebuild and is skipped.
  std::vector<std::unordered_map<NodeId, const PathSet*>> paths_;
};

}  // namespace dcrd
