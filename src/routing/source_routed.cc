#include "routing/source_routed.h"

#include <algorithm>
#include <tuple>

namespace dcrd {

SourceRoutedRouter::SourceRoutedRouter(RouterContext context)
    : context_(context),
      transport_(*context_.network,
                 [this](NodeId at, const Packet& packet, NodeId /*from*/) {
                   OnArrival(at, packet);
                 },
                 context_.MakeTransportConfig()) {
  DCRD_CHECK(context_.network != nullptr);
  DCRD_CHECK(context_.subscriptions != nullptr);
  DCRD_CHECK(context_.sink != nullptr);
}

void SourceRoutedRouter::Rebuild(const MonitoredView& view) {
  view_ = &view;
  transport_.ClearDedupState();
  RebuildRoutes();
}

void SourceRoutedRouter::Publish(const Message& message) {
  // Cache the routes: NextHop() reads them at every intermediate broker.
  PurgeStaleRoutes();
  CachedRoutes cached;
  cached.inserted = context_.network->scheduler().now();
  cached.routes = RoutesFor(message);
  const auto [cache_it, inserted] =
      route_cache_.emplace(message.id.value, std::move(cached));
  DCRD_CHECK(inserted) << "duplicate message id " << message.id;
  cache_order_.push_back(message.id.value);
  const CachedRoutes& it_routes = cache_it->second;

  // Group subscribers by (first hop, tag) and launch one copy per group.
  const NodeId origin = message.publisher;
  hops_scratch_.clear();
  for (const Route& route : it_routes.routes) {
    if (route.nodes.size() < 2) {
      // Subscriber co-located with the publisher: immediate delivery.
      context_.sink->OnDelivered(message, route.subscriber,
                                 context_.network->scheduler().now());
      continue;
    }
    DCRD_CHECK(route.nodes.front() == origin);
    hops_scratch_.push_back(Hop{route.nodes[1], route.tag, route.subscriber});
  }
  SendGroups(origin, message, /*arrived=*/nullptr);
}

void SourceRoutedRouter::SendGroups(NodeId at, const Message& message,
                                    const Packet* arrived) {
  // Sorting whole hops keeps each group's subscribers ascending, the order
  // a packet stores its destinations in.
  std::sort(hops_scratch_.begin(), hops_scratch_.end(),
            [](const Hop& a, const Hop& b) {
              return std::tie(a.next, a.tag, a.subscriber) <
                     std::tie(b.next, b.tag, b.subscriber);
            });
  for (std::size_t begin = 0; begin < hops_scratch_.size();) {
    const NodeId next = hops_scratch_[begin].next;
    const std::uint8_t tag = hops_scratch_[begin].tag;
    group_scratch_.clear();
    for (; begin < hops_scratch_.size() && hops_scratch_[begin].next == next &&
           hops_scratch_[begin].tag == tag;
         ++begin) {
      group_scratch_.push_back(hops_scratch_[begin].subscriber);
    }
    if (arrived == nullptr) {
      send_scratch_.Assign(message, group_scratch_);
      send_scratch_.set_flow_label(tag);
    } else {
      send_scratch_.AssignNarrowed(*arrived, group_scratch_);
    }
    send_scratch_.RecordOnPath(at);
    const auto link = graph().FindEdge(at, next);
    DCRD_CHECK(link.has_value())
        << "route uses missing edge " << at << "-" << next;
    const SimDuration timeout = context_.AckTimeout(view().alpha(*link));
    transport_.SendReliable(at, *link, std::move(send_scratch_),
                            context_.max_transmissions, timeout,
                            /*done=*/nullptr);
  }
}

std::vector<SourceRoutedRouter::Route> SourceRoutedRouter::RoutesAlong(
    const PathTree& tree, TopicId topic) const {
  std::vector<Route> routes;
  for (const Subscription& sub :
       context_.subscriptions->subscriptions(topic)) {
    if (!tree.Reachable(sub.subscriber)) continue;
    routes.push_back(Route{sub.subscriber, tree.PathTo(sub.subscriber), 0});
  }
  return routes;
}

NodeId SourceRoutedRouter::NextHop(const Message& message, NodeId at,
                                   NodeId subscriber, std::uint8_t tag) const {
  const auto it = route_cache_.find(message.id.value);
  if (it == route_cache_.end()) return NodeId();
  for (const Route& route : it->second.routes) {
    if (route.subscriber != subscriber || route.tag != tag) continue;
    const auto pos = std::find(route.nodes.begin(), route.nodes.end(), at);
    if (pos == route.nodes.end() || pos + 1 == route.nodes.end()) {
      return NodeId();
    }
    return *(pos + 1);
  }
  return NodeId();
}

void SourceRoutedRouter::OnArrival(NodeId at, const Packet& packet) {
  hops_scratch_.clear();
  for (NodeId subscriber : packet.destinations()) {
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
      continue;
    }
    const NodeId next =
        NextHop(packet.message(), at, subscriber, packet.flow_label());
    if (!next.valid()) continue;  // purged route: abandon, as on a real node
    hops_scratch_.push_back(Hop{next, packet.flow_label(), subscriber});
  }
  SendGroups(at, packet.message(), &packet);
}

void SourceRoutedRouter::PurgeStaleRoutes() {
  const SimTime now = context_.network->scheduler().now();
  while (!cache_order_.empty()) {
    const auto it = route_cache_.find(cache_order_.front());
    if (it != route_cache_.end() &&
        now - it->second.inserted < cache_ttl_) {
      break;
    }
    if (it != route_cache_.end()) route_cache_.erase(it);
    cache_order_.pop_front();
  }
}

}  // namespace dcrd
