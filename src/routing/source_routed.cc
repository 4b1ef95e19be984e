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
                 context_.MakeTransportConfig(),
                 [this](std::uint64_t owner) {
                   records_.Release(records_.FromTag(owner));
                 }) {
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
  // This reference keeps the routes through the sends below.
  const SlotHandle record = records_.Open(message.id.value);
  RouteSet& routes = records_.Get(record);
  PlanRoutes(message, routes);

  // Group subscribers by (first hop, tag) and launch one copy per group.
  const NodeId origin = message.publisher;
  hops_scratch_.clear();
  for (const RouteSet::Route& route : routes.routes) {
    if (route.size < 2) {
      // Subscriber co-located with the publisher: immediate delivery.
      context_.sink->OnDelivered(message, route.subscriber,
                                 context_.network->scheduler().now());
      continue;
    }
    DCRD_CHECK(routes.nodes[route.begin] == origin);
    hops_scratch_.push_back(
        Hop{routes.nodes[route.begin + 1], route.tag, route.subscriber});
  }
  SendGroups(origin, record, message, /*arrived=*/nullptr);
  records_.Release(record);
}

void SourceRoutedRouter::SendGroups(NodeId at, SlotHandle record,
                                    const Message& message,
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
    // The copy keeps the routes until the transport retires it.
    records_.Retain(record);
    transport_.SendReliable(at, *link, std::move(send_scratch_),
                            context_.max_transmissions, timeout,
                            /*done=*/nullptr, records_.OwnerTag(record));
  }
}

void SourceRoutedRouter::RoutesAlong(const PathTree& tree, TopicId topic,
                                     RouteSet& routes) const {
  for (const Subscription& sub :
       context_.subscriptions->subscriptions(topic)) {
    if (!tree.Reachable(sub.subscriber)) continue;
    const std::size_t begin = routes.nodes.size();
    tree.AppendPathTo(sub.subscriber, routes.nodes);
    routes.AddRoute(sub.subscriber, /*tag=*/0, begin);
  }
}

void SourceRoutedRouter::OnArrival(NodeId at, const Packet& packet) {
  // The arriving copy holds its message's record until this returns.
  const SlotHandle record = records_.Live(packet.message().id.value);
  const RouteSet& routes = records_.Get(record);
  // Every broker before `at` stamped itself once and none rerouted, so the
  // copy stands at its route's node number routing_path().size().
  const std::size_t index = packet.routing_path().size();
  hops_scratch_.clear();
  for (NodeId subscriber : packet.destinations()) {
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
      continue;
    }
    const auto route = std::find_if(
        routes.routes.begin(), routes.routes.end(), [&](const auto& r) {
          return r.subscriber == subscriber && r.tag == packet.flow_label();
        });
    DCRD_CHECK(route != routes.routes.end() && index + 1 < route->size &&
               routes.nodes[route->begin + index] == at)
        << "copy of message " << packet.message().id << " at " << at
        << " is off its route to " << subscriber;
    hops_scratch_.push_back(Hop{routes.nodes[route->begin + index + 1],
                                packet.flow_label(), subscriber});
  }
  SendGroups(at, record, packet.message(), &packet);
}

}  // namespace dcrd
