#include "routing/multipath_router.h"

#include <unordered_set>
#include <utility>

namespace dcrd {

namespace {

// Links shared between `candidate` and the union of already-selected links.
std::size_t OverlapWithSelected(
    const WeightedPath& candidate,
    const std::unordered_set<LinkId::underlying_type>& selected_links) {
  std::size_t shared = 0;
  for (LinkId link : candidate.links) {
    if (selected_links.contains(link.underlying())) ++shared;
  }
  return shared;
}

}  // namespace

void MultipathRouter::RebuildRoutes() {
  const SubscriptionTable& subs = *context().subscriptions;
  std::vector<SimDuration> alpha(view().link_count());
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = view().alpha(LinkId(static_cast<LinkId::underlying_type>(i)));
  }
  if (alpha != planned_alpha_) {
    planned_.clear();
    planned_alpha_ = std::move(alpha);
  }
  paths_.assign(subs.topic_count(), {});
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    for (const Subscription& sub : subs.subscriptions(topic)) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(publisher.underlying()) << 32 |
          sub.subscriber.underlying();
      const auto [it, inserted] = planned_.try_emplace(key);
      if (inserted) it->second = PlanPaths(publisher, sub.subscriber);
      paths_[t].emplace(sub.subscriber, &it->second);
    }
  }
}

MultipathRouter::PathSet MultipathRouter::PlanPaths(NodeId publisher,
                                                    NodeId subscriber) const {
  const LinkDelayFn monitored = [this](LinkId link) {
    return view().alpha(link);
  };
  const auto candidates = YenKShortestPaths(graph(), publisher, subscriber,
                                            kCandidatePaths, monitored);
  PathSet selected;
  std::vector<bool> used(candidates.size(), false);
  std::unordered_set<LinkId::underlying_type> selected_links;
  // Greedy diversity selection: primary first, then repeatedly the
  // least-overlapping remaining candidate (Yen order breaks ties toward
  // lower delay).
  while (selected.size() < path_count_) {
    std::size_t best = candidates.size();
    std::size_t best_overlap = SIZE_MAX;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const std::size_t overlap =
          selected.empty() ? 0
                           : OverlapWithSelected(candidates[i], selected_links);
      if (selected.empty()) {
        best = i;  // primary = Yen's first (shortest delay)
        break;
      }
      if (overlap < best_overlap) {
        best_overlap = overlap;
        best = i;
      }
    }
    if (best == candidates.size()) break;  // graph exhausted
    used[best] = true;
    for (LinkId link : candidates[best].links) {
      selected_links.insert(link.underlying());
    }
    selected.push_back(candidates[best].nodes);
  }
  return selected;
}

std::vector<SourceRoutedRouter::Route> MultipathRouter::RoutesFor(
    const Message& message) {
  const SubscriptionTable& subs = *context().subscriptions;
  const auto& topic_paths = paths_[message.topic.underlying()];
  std::vector<Route> routes;
  for (const Subscription& sub : subs.subscriptions(message.topic)) {
    const auto it = topic_paths.find(sub.subscriber);
    // Joined after the last rebuild: no path set yet, reachable from the
    // next epoch on.
    if (it == topic_paths.end()) continue;
    const PathSet& selected = *it->second;
    for (std::size_t p = 0; p < selected.size(); ++p) {
      routes.push_back(
          Route{sub.subscriber, selected[p], static_cast<std::uint8_t>(p)});
    }
  }
  return routes;
}

}  // namespace dcrd
