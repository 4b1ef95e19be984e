// Overlay transmission service.
//
// A transmission over link L entered at time t succeeds iff L is up at t,
// both endpoint brokers are up at t, an independent Bernoulli(Pl) loss
// draw passes, and — when a gray episode degrades the transmission's
// direction (see gray_failure.h) — an extra Bernoulli loss draw passes; on
// success the payload callback fires at the receiving endpoint after
// (queuing +) propagation delay, inflated by the gray delay factor while
// the direction is degraded. Senders are never told the outcome directly —
// reliable delivery is built *above* this service from hop-by-hop ACKs,
// exactly as in the paper.
//
// Randomness is *keyed*, not streamed: every loss/gray/jitter draw is a
// pure function of (network seed, directed link + traffic class, a
// per-(directed link, class) attempt counter — or, for ACK legs, the
// copy's content key) via KeyedUnit/KeyedBernoulli (common/rng.h). No draw
// depends on the global interleaving of other transmissions: traffic on one
// directed link and class never shifts the draws of another. Delivery
// produces a *Resolution* (arrival time plus the canonical event key of the
// arrival, see event/scheduler.h), so an arrival's place among
// same-instant events is fixed by its content, not by when it was
// scheduled.
//
// Optional per-link queuing: when `serialization` is non-zero every data
// packet occupies its directed link for that long, so bursts build a FIFO
// queue and the queuing delay counts against the deadline — the
// "congestion" the paper's introduction worries about. ACKs ride the
// out-of-band control channel (see ack_delay_factor) and never queue.
//
// The network also keeps the traffic counters behind the paper's
// "packets sent / subscriber" metric: data packets (including
// retransmissions and reroutes) are what Fig. 2(c)-5(c) count; ACKs and
// control traffic are tallied separately.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/slot_map.h"
#include "event/scheduler.h"
#include "graph/graph.h"
#include "net/broker_lifecycle.h"
#include "net/failure_schedule.h"
#include "net/gray_failure.h"
#include "obs/trace_record.h"

namespace dcrd {

class FlightRecorder;

enum class TrafficClass : std::size_t { kData = 0, kAck = 1, kControl = 2 };

struct TrafficCounters {
  std::uint64_t attempted = 0;  // transmissions started
  std::uint64_t delivered = 0;  // payload callbacks fired
  std::uint64_t dropped_failure = 0;       // link down at entry
  std::uint64_t dropped_node_failure = 0;  // an endpoint broker down
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_gray = 0;   // gray episode's extra loss
  std::uint64_t dropped_crash = 0;  // a crashed broker killed it (at entry
                                    // or mid-flight — fail-stop semantics)

  // Every attempt is either delivered or lands in exactly one drop bucket;
  // the invariant checker asserts this every monitoring epoch.
  [[nodiscard]] std::uint64_t accounted() const {
    return delivered + dropped_failure + dropped_node_failure + dropped_loss +
           dropped_gray + dropped_crash;
  }
};

struct OverlayNetworkConfig {
  double loss_rate = 0.0;
  // ACK propagation as a fraction of the link delay; 0 = the paper's
  // "senders immediately know the reception status" out-of-band model,
  // 1 = physical in-band round trip.
  double ack_delay_factor = 0.0;
  // Per-packet link occupancy (0 = infinite bandwidth, the paper's model).
  SimDuration serialization = SimDuration::Zero();
  // Per-transmission propagation jitter: actual = delay * (1 + U(-j, +j)).
  // 0 = the paper's fixed delays. Jitter makes the monitored alpha an
  // *estimate* rather than the truth and can trip ACK timers spuriously.
  double delay_jitter = 0.0;
};

// Outcome of one resolved transmission. When `delivered` is true, `at` is
// the arrival instant and (k1, k2) the canonical key the arrival event
// must be scheduled under. When false the attempt landed in a drop bucket
// and the other fields are meaningless.
struct Resolution {
  bool delivered = false;
  SimTime at;
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
};

class OverlayNetwork {
 public:
  OverlayNetwork(const Graph& graph, Scheduler& scheduler,
                 FailureSchedule failures, OverlayNetworkConfig config,
                 Rng loss_rng,
                 NodeFailureSchedule node_failures = NodeFailureSchedule(),
                 GrayFailureSchedule gray = GrayFailureSchedule(),
                 BrokerCrashSchedule crashes = BrokerCrashSchedule())
      : graph_(graph),
        scheduler_(scheduler),
        failures_(failures),
        node_failures_(node_failures),
        gray_(gray),
        crashes_(crashes),
        config_(config),
        // All keyed draws hash through one forked seed; the fork keeps the
        // substream independent of every other consumer of the scenario rng.
        seed_(loss_rng.Fork("keyed")()),
        // One busy-until slot per directed link: index 2*link + direction.
        link_free_(graph.edge_count() * 2, SimTime::Zero()),
        // One attempt counter per (directed link, traffic class).
        draw_seq_(graph.edge_count() * 2 * 3, 0),
        // One arrival-sequence counter per sending broker (the k2 minor
        // word of every data/control arrival it originates).
        arrival_seq_(graph.node_count(), 0) {}

  // Legacy convenience constructor used widely in tests.
  OverlayNetwork(const Graph& graph, Scheduler& scheduler,
                 FailureSchedule failures, double loss_rate, Rng loss_rng,
                 double ack_delay_factor = 0.0)
      : OverlayNetwork(graph, scheduler, failures,
                       OverlayNetworkConfig{loss_rate, ack_delay_factor,
                                            SimDuration::Zero()},
                       loss_rng) {}

  OverlayNetwork(const OverlayNetwork&) = delete;
  OverlayNetwork& operator=(const OverlayNetwork&) = delete;

  // Resolves one transmission from `from` over `link` entered now: runs
  // the drop gauntlet (link/node/crash state, keyed loss + gray draws),
  // the queuing/jitter delay math, and the counters. Pure bookkeeping —
  // nothing is scheduled; the caller dispatches the arrival under the
  // returned key. Precondition: `from` is an endpoint of `link`. `trace`
  // names the packet/copy for the flight recorder's drop records.
  Resolution ResolveSend(NodeId from, LinkId link, TrafficClass cls,
                         TraceContext trace = {});

  // Resolves the ACK a data copy's receiver emits the instant the copy
  // lands: every schedule lookup (link/node/crash/gray state) is evaluated
  // at the future arrival instant `t1`, and the loss/gray draws are keyed
  // by `ack_key` — the copy's content key — instead of an attempt counter.
  // Both make the resolution computable at *send* time, so the data sender
  // precomputes the ACK leg together with the data leg. The returned key is
  // (PackK1(t1, acker), ack_key).
  Resolution ResolveAckAt(NodeId acker, LinkId link, SimTime t1,
                          std::uint64_t ack_key, TraceContext trace = {});

  // Attempts one transmission from `from` over `link` and, on success,
  // schedules `on_delivered` at the opposite endpoint's arrival instant.
  // ResolveSend + ScheduleKeyed fused. The return value (false = dropped, callback destroyed unrun) exists ONLY
  // so callers can recycle resources referenced by the callback;
  // protocols must never branch on it — the paper's senders learn
  // outcomes through ACKs alone.
  bool Transmit(NodeId from, LinkId link, TrafficClass cls,
                Scheduler::Action on_delivered, TraceContext trace = {});

  // Control-plane round trip: a request leg to `link`'s other endpoint
  // and, resolved *at the receiver* when the request lands, a reply leg
  // back. `on_echo` runs at the sender when the reply lands; if either
  // leg drops, it is destroyed unrun (the usual silent-network contract).
  // Pass an empty callback for fire-and-forget round trips that only
  // exist to exercise the control channel (crash-recovery resync). Both
  // the peer-death probe and the resync ping ride this. Returns false when
  // the request leg dropped at the sender.
  bool TransmitEcho(NodeId from, LinkId link, Scheduler::Action on_echo,
                    TraceContext trace = {});

  // Attaches the flight recorder that receives link-level drop events.
  // nullptr (the default) detaches. Must outlive the network.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // True when `node` can currently send and receive.
  [[nodiscard]] bool NodeUp(NodeId node) const {
    const SimTime now = scheduler_.now();
    return node_failures_.IsUp(node, now) && crashes_.Up(node, now);
  }

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const FailureSchedule& failures() const { return failures_; }
  [[nodiscard]] const NodeFailureSchedule& node_failures() const {
    return node_failures_;
  }
  [[nodiscard]] const GrayFailureSchedule& gray() const { return gray_; }
  [[nodiscard]] const BrokerCrashSchedule& crashes() const { return crashes_; }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] const TrafficCounters& counters(TrafficClass cls) const {
    return counters_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] double ack_delay_factor() const {
    return config_.ack_delay_factor;
  }
  [[nodiscard]] const OverlayNetworkConfig& config() const { return config_; }

 private:
  // Shared resolution core; `when` is the instant every schedule lookup
  // and the delay math use (now for data/control, the data arrival
  // instant for precomputed ACKs), `draw_key` the keyed-draw minor word.
  Resolution ResolveAt(NodeId from, LinkId link, TrafficClass cls,
                       SimTime when, std::uint64_t draw_key,
                       const TraceContext& trace);

  // Request leg landed at `at_node`: resolve the reply leg back over
  // `link` and schedule it. `origin_slot` is the completion's slot in
  // echo_slots_ (invalid for fire-and-forget echoes).
  void HandleEchoRequest(NodeId at_node, LinkId link, SlotHandle origin_slot);
  // Reply leg landed back at the origin: run and release the completion.
  void RunEcho(SlotHandle slot);

  const Graph& graph_;
  Scheduler& scheduler_;
  FailureSchedule failures_;
  NodeFailureSchedule node_failures_;
  GrayFailureSchedule gray_;
  BrokerCrashSchedule crashes_;
  OverlayNetworkConfig config_;
  const std::uint64_t seed_;  // keyed-draw seed (see header comment)
  std::vector<SimTime> link_free_;
  std::vector<std::uint64_t> draw_seq_;     // [didx * 3 + class]
  std::vector<std::uint64_t> arrival_seq_;  // [sending broker]
  std::array<TrafficCounters, 3> counters_{};
  // Completion callbacks for in-flight echo round trips (probes, resync).
  SlotMap<Scheduler::Action> echo_slots_;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace dcrd
