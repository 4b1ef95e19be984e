// Shared forwarding engine for the fixed-route baselines.
//
// R-Tree, D-Tree, Multipath and ORACLE all share one behaviour (paper
// Section IV-B): routes are decided up front — per epoch for the trees and
// Multipath, per message for ORACLE — and a packet that loses a hop after m
// transmissions is simply abandoned; none of them reroutes around a failure.
// This base class implements that behaviour once: subclasses only produce
// the explicit route set for a message.
//
// Copies are grouped: subscribers whose routes leave the current broker via
// the same next hop (and the same route tag) share one packet, so the
// "packets sent / subscriber" metric reflects multicast sharing exactly as
// the paper's trees do.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "routing/hop_transport.h"
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
  void SampleBrokerHealth(std::vector<BrokerHealth>& out) const final {
    transport_.SampleBrokerHealth(out);
  }
  // The baselines keep no per-broker routing state beyond the transport
  // (routes ride in the packets), so a crash only voids transport state; a
  // restarted broker needs no resync.
  std::size_t OnBrokerCrash(NodeId node) final {
    return transport_.OnBrokerCrash(node);
  }

 protected:
  struct Route {
    NodeId subscriber;
    std::vector<NodeId> nodes;  // publisher..subscriber inclusive
    std::uint8_t tag = 0;       // distinguishes a subscriber's parallel routes
  };

  // Recomputes epoch routing structures from `view()`. Default: nothing
  // (ORACLE plans per message).
  virtual void RebuildRoutes() {}
  // All routes for a freshly published message.
  virtual std::vector<Route> RoutesFor(const Message& message) = 0;

  [[nodiscard]] const MonitoredView& view() const {
    DCRD_CHECK(view_ != nullptr) << "Rebuild() not called yet";
    return *view_;
  }
  [[nodiscard]] const RouterContext& context() const { return context_; }
  [[nodiscard]] const Graph& graph() const { return context_.network->graph(); }

 private:
  struct CachedRoutes {
    SimTime inserted;
    std::vector<Route> routes;
  };

  void OnArrival(NodeId at, const Packet& packet);
  // Next hop for `subscriber` after node `at` on the tagged route of
  // `message`; invalid NodeId when unknown (purged cache / broken route).
  [[nodiscard]] NodeId NextHop(const Message& message, NodeId at,
                               NodeId subscriber, std::uint8_t tag) const;
  void ForwardGroups(NodeId at, const Packet& packet,
                     const std::vector<NodeId>& remaining);
  void PurgeStaleRoutes();

  RouterContext context_;
  const MonitoredView* view_ = nullptr;
  HopTransport transport_;
  std::unordered_map<std::uint64_t, CachedRoutes> route_cache_;
  std::deque<std::uint64_t> cache_order_;
  // Routes older than this are unreachable in practice (deadlines are tens
  // to hundreds of ms); purging keeps multi-hour runs at constant memory.
  SimDuration cache_ttl_ = SimDuration::Seconds(120);
};

}  // namespace dcrd
