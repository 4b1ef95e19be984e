#include "routing/source_routed.h"

#include <algorithm>
#include <map>

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
  std::map<std::pair<NodeId, std::uint8_t>, std::vector<NodeId>> groups;
  for (const Route& route : it_routes.routes) {
    if (route.nodes.size() < 2) {
      // Subscriber co-located with the publisher: immediate delivery.
      context_.sink->OnDelivered(message, route.subscriber,
                                 context_.network->scheduler().now());
      continue;
    }
    DCRD_CHECK(route.nodes.front() == origin);
    groups[{route.nodes[1], route.tag}].push_back(route.subscriber);
  }
  for (auto& [key, subscribers] : groups) {
    const auto [next, tag] = key;
    Packet packet(message, std::move(subscribers));
    packet.set_flow_label(tag);
    packet.RecordOnPath(origin);
    const auto link = graph().FindEdge(origin, next);
    DCRD_CHECK(link.has_value()) << "route uses missing edge " << origin
                                 << "-" << next;
    const SimDuration timeout = context_.AckTimeout(view().alpha(*link));
    transport_.SendReliable(origin, *link, std::move(packet),
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
  std::vector<NodeId> remaining;
  for (NodeId subscriber : packet.destinations()) {
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
    } else {
      remaining.push_back(subscriber);
    }
  }
  if (!remaining.empty()) ForwardGroups(at, packet, remaining);
}

void SourceRoutedRouter::ForwardGroups(NodeId at, const Packet& packet,
                                       const std::vector<NodeId>& remaining) {
  std::map<NodeId, std::vector<NodeId>> groups;
  for (NodeId subscriber : remaining) {
    const NodeId next =
        NextHop(packet.message(), at, subscriber, packet.flow_label());
    if (!next.valid()) continue;  // purged route: abandon, as on a real node
    groups[next].push_back(subscriber);
  }
  for (auto& [next, subscribers] : groups) {
    Packet copy = packet.WithDestinations(std::move(subscribers));
    copy.RecordOnPath(at);
    const auto link = graph().FindEdge(at, next);
    DCRD_CHECK(link.has_value());
    const SimDuration timeout = context_.AckTimeout(view().alpha(*link));
    transport_.SendReliable(at, *link, std::move(copy),
                            context_.max_transmissions, timeout,
                            /*done=*/nullptr);
  }
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
