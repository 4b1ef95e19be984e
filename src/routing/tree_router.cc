#include "routing/tree_router.h"

namespace dcrd {

void TreeRouter::RebuildRoutes() {
  const SubscriptionTable& subs = *context().subscriptions;
  trees_.clear();
  trees_.reserve(subs.topic_count());
  const LinkDelayFn monitored = [this](LinkId link) {
    return view().alpha(link);
  };
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const NodeId publisher =
        subs.publisher(TopicId(static_cast<TopicId::underlying_type>(t)));
    trees_.push_back(kind_ == TreeKind::kShortestHop
                         ? ShortestHopTree(graph(), publisher, monitored)
                         : ShortestDelayTree(graph(), publisher, monitored));
  }
}

void TreeRouter::PlanRoutes(const Message& message, RouteSet& routes) {
  RoutesAlong(trees_[message.topic.underlying()], message.topic, routes);
}

}  // namespace dcrd
