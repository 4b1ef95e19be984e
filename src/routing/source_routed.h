// Shared forwarding engine for the fixed-route baselines.
//
// R-Tree, D-Tree, Multipath and ORACLE all share one behaviour (paper
// Section IV-B): routes are decided up front — per epoch for the trees and
// Multipath, per message for ORACLE — and a packet that loses a hop after m
// transmissions is simply abandoned; none of them reroutes around a failure.
// This base class implements that behaviour once: subclasses only plan a
// message's routes when it is published. The routes live in the message's
// record (message_records.h) until its last copy is retired, and every
// broker on the way reads its next hop there.
//
// Copies are grouped: subscribers whose routes leave the current broker via
// the same next hop (and the same route tag) share one packet, so the
// "packets sent / subscriber" metric reflects multicast sharing exactly as
// the paper's trees do.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/shortest_path.h"
#include "routing/hop_transport.h"
#include "routing/message_records.h"
#include "routing/router.h"

namespace dcrd {

class SourceRoutedRouter : public Router {
 public:
  explicit SourceRoutedRouter(RouterContext context);

  void Rebuild(const MonitoredView& view) final;
  void Publish(const Message& message) final;
  [[nodiscard]] TransportStats transport_stats() const final {
    return transport_.stats();
  }
  [[nodiscard]] std::size_t message_records() const final {
    return records_.size();
  }
  void SampleBrokerHealth(std::vector<BrokerHealth>& out) const final {
    transport_.SampleBrokerHealth(out);
  }
  // The baselines keep no per-broker routing state beyond the transport, so
  // a crash only voids transport state; a restarted broker needs no resync.
  std::size_t OnBrokerCrash(NodeId node) final {
    return transport_.OnBrokerCrash(node);
  }

 protected:
  // One message's routes, flat: a route visits nodes[begin, begin + size),
  // publisher..subscriber; `tag` tells a subscriber's parallel routes apart.
  struct RouteSet {
    struct Route {
      NodeId subscriber;
      std::uint8_t tag = 0;
      std::uint32_t begin = 0;
      std::uint32_t size = 0;
    };
    std::vector<NodeId> nodes;
    std::vector<Route> routes;

    void clear() {
      nodes.clear();
      routes.clear();
    }
    // Adds the route made of the nodes appended since `begin`.
    void AddRoute(NodeId subscriber, std::uint8_t tag, std::size_t begin) {
      routes.push_back(Route{subscriber, tag, static_cast<std::uint32_t>(begin),
                             static_cast<std::uint32_t>(nodes.size() - begin)});
    }
  };

  // Recomputes epoch routing structures from `view()`. Default: nothing
  // (ORACLE plans per message).
  virtual void RebuildRoutes() {}
  // Writes every route of a freshly published message into `routes`,
  // which comes empty.
  virtual void PlanRoutes(const Message& message, RouteSet& routes) = 0;
  // Adds one route per subscriber of `topic` that `tree` reaches, read off
  // the tree; a subscriber it does not reach gets none.
  void RoutesAlong(const PathTree& tree, TopicId topic,
                   RouteSet& routes) const;

  [[nodiscard]] const MonitoredView& view() const {
    DCRD_CHECK(view_ != nullptr) << "Rebuild() not called yet";
    return *view_;
  }
  [[nodiscard]] const RouterContext& context() const { return context_; }
  [[nodiscard]] const Graph& graph() const { return context_.network->graph(); }

 private:
  // One subscriber's next hop out of the current broker; subscribers that
  // share (next, tag) share a copy.
  struct Hop {
    NodeId next;
    std::uint8_t tag = 0;
    NodeId subscriber;
  };

  void OnArrival(NodeId at, const Packet& packet);
  // Sends one copy from `at` per (next, tag) group of hops_scratch_, in
  // ascending (next, tag) order, each holding a reference on `record`. With
  // `arrived` null a copy is a fresh packet of `message` carrying its
  // group's tag; otherwise it is *arrived narrowed to the group.
  void SendGroups(NodeId at, SlotHandle record, const Message& message,
                  const Packet* arrived);

  RouterContext context_;
  const MonitoredView* view_ = nullptr;
  MessageRecords<RouteSet> records_;
  HopTransport transport_;
  // Member scratch for the per-hop paths, capacity kept across calls: the
  // hops being grouped, one group's subscribers, and the copy being sent
  // (the transport hands back its slot's previous buffers).
  std::vector<Hop> hops_scratch_;
  std::vector<NodeId> group_scratch_;
  Packet send_scratch_;
};

}  // namespace dcrd
