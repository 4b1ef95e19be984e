// Router interface and shared construction context.
//
// A Router implements one delivery protocol for the whole overlay (the
// simulator drives all brokers through one object, but per-broker state is
// kept strictly per-node so every forwarding decision uses only information
// that broker would locally have — the paper's "next-hop decision is based
// on local information only" property is preserved by construction, and the
// ORACLE router is the one deliberate exception).
#pragma once

#include <string_view>

#include "common/sim_time.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "pubsub/packet.h"
#include "pubsub/publisher.h"
#include "pubsub/subscriptions.h"
#include "routing/hop_transport.h"

namespace dcrd {

struct RouterContext {
  OverlayNetwork* network = nullptr;
  const SubscriptionTable* subscriptions = nullptr;
  DeliverySink* sink = nullptr;
  // Paper parameter m: transmissions attempted on a link before the node
  // declares the hop failed.
  int max_transmissions = 1;
  // Added on top of the expected ACK return time when arming timeout
  // timers.
  SimDuration ack_slack = SimDuration::Millis(1);
  // Replace the paper's fixed per-send timer with the per-link
  // Jacobson/Karels estimator (see rto_estimator.h). Off by default for
  // figure parity.
  bool adaptive_rto = false;
  // Peer-death detection knobs, forwarded to every HopTransport (see
  // hop_transport.h). Off by default for figure parity.
  bool peer_death = false;
  int peer_death_threshold = 2;
  // Hooked through to every HopTransport; used by the invariant checker.
  TransportObserver* transport_observer = nullptr;
  // Optional observability hooks, forwarded to every HopTransport (and used
  // directly by routers for protocol-level events like reroutes). Both must
  // outlive the router.
  FlightRecorder* recorder = nullptr;
  LogLinearHistogram* hop_rtt_histogram = nullptr;

  // Timeout to arm after transmitting over a link with (estimated) one-way
  // delay `alpha`: data takes alpha, the ACK takes alpha times the
  // network's ack-delay factor (0 in the paper's "senders immediately know"
  // model), plus slack. In adaptive mode this value only seeds the
  // estimator until the link's first real RTT sample.
  [[nodiscard]] SimDuration AckTimeout(SimDuration alpha) const {
    return SimDuration::FromMillisF(
               alpha.millis() * (1.0 + network->ack_delay_factor())) +
           ack_slack;
  }

  // The transport configuration every router passes to its HopTransport.
  [[nodiscard]] HopTransportConfig MakeTransportConfig() const {
    HopTransportConfig config;
    config.adaptive_rto = adaptive_rto;
    config.peer_death = peer_death;
    config.peer_death_threshold = peer_death_threshold;
    config.observer = transport_observer;
    config.recorder = recorder;
    config.rtt_histogram = hop_rtt_histogram;
    return config;
  }
};

// Gossip-resync bookkeeping for restarted brokers (all zero for routers
// with no rederivable routing state; DCRD fills it in).
struct ResyncStats {
  std::uint64_t resyncs_started = 0;
  std::uint64_t resyncs_completed = 0;
  SimDuration total_resync_time = SimDuration::Zero();
  SimDuration max_resync_time = SimDuration::Zero();
};

class Router {
 public:
  virtual ~Router() = default;

  // Installs fresh monitoring estimates; called once before the simulation
  // starts and at every monitoring epoch. Routing structures (trees,
  // multipath route pairs, DCRD sending lists) are rebuilt here and nowhere
  // else — between epochs routers run on stale state, as in the paper.
  virtual void Rebuild(const MonitoredView& view) = 0;

  // Injects a freshly published message at its publisher broker.
  virtual void Publish(const Message& message) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Cumulative hop-transport counters (retransmissions, spurious
  // retransmissions, in-flight copies). Routers owning a HopTransport
  // override this; the default is all-zero.
  [[nodiscard]] virtual TransportStats transport_stats() const { return {}; }

  // Protocol-level work still open (e.g. DCRD processing episodes); must be
  // 0 after the scheduler drains — the invariant checker asserts it.
  [[nodiscard]] virtual std::size_t open_episodes() const { return 0; }

  // Accumulates per-broker health (in-flight copies, dedup table sizes,
  // adaptive RTO) into `out`, indexed by broker id and zeroed by the
  // caller. Routers owning a HopTransport delegate to it; the default
  // leaves everything zero. Read-only — the time-series sampler calls this
  // from an observability event.
  virtual void SampleBrokerHealth(std::vector<BrokerHealth>& out) const {
    (void)out;
  }

  // Broker lifecycle (fail-stop crash–recovery; see net/broker_lifecycle.h).
  // OnBrokerCrash: `node` fail-stopped — drop every piece of volatile state
  // it held (transport pendings and dedup, open episodes, caches); returns
  // the number of in-flight copies killed, for the kBrokerDown trace
  // record. OnBrokerRestart: it came back empty — trigger whatever resync
  // the protocol needs before its routing state is trustworthy again.
  // Defaults are no-ops for routers with no per-broker volatile state.
  virtual std::size_t OnBrokerCrash(NodeId node) {
    (void)node;
    return 0;
  }
  virtual void OnBrokerRestart(NodeId node) { (void)node; }
  [[nodiscard]] virtual ResyncStats resync_stats() const { return {}; }
};

}  // namespace dcrd
