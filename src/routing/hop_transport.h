// Reliable hop-by-hop packet transport (data + ACK machinery).
//
// Every protocol in the paper moves packets the same way at the link level:
// send a copy to a chosen neighbour, wait for a hop ACK, retransmit up to m
// times, then report success or give-up to the protocol above. This class
// owns that machinery — copy ids, ACK emission, duplicate suppression,
// timeout timers — so DCRD, the trees, Multipath and ORACLE all share one
// audited implementation and differ only in *where* they send next.
//
// Semantics:
//  * Each SendReliable call allocates a copy id carried by every
//    retransmission of that copy. Copy ids are allocated per sending
//    broker ((broker+1) << 40 | broker-local counter) so the id a copy
//    gets is independent of how sends from *other* brokers interleave.
//  * The receiving side ACKs every arrival (including duplicates) but hands
//    the packet to the protocol's arrival handler only once per copy id.
//    The ACK leg itself is resolved at *send* time
//    (OverlayNetwork::ResolveAckAt): its outcome is a pure function of
//    schedules and the copy's content key, so the sender precomputes the
//    HandleAckArrival instant together with the data leg.
//  * `done(acked)` fires exactly once: true as soon as the ACK returns,
//    false after the m-th transmission's timeout expires. A data copy can
//    have been delivered even when done(false) fires (ACK lost) — protocols
//    must tolerate duplicates, exactly as over a real network.
//
// Timer modes:
//  * Fixed (default, paper parity): every transmission of a copy arms the
//    caller-supplied `ack_timeout` (2*alpha_hat-style), bit-identical to
//    the paper's model.
//  * Adaptive (config.adaptive_rto): timers come from a per-link
//    Jacobson/Karels RTO estimator fed by observed ACK round-trips and
//    seeded from `ack_timeout` until the first sample, with exponential
//    backoff plus deterministic jitter across the m retransmissions (see
//    rto_estimator.h). ACKs identify the transmission they answer, so the
//    transport also counts *spurious* retransmissions — copies retransmitted
//    although an earlier transmission's ACK was merely late.
//
// Storage layout (the hot part): per-copy sender state lives in a pooled
// slab (slot_map.h) whose handles ride inside the scheduler/network
// callbacks, in-flight wire payloads live in a second slab so callback
// captures stay within the inline budget, and the receiver-side dedup
// generations plus ACK tombstones are open-addressing tables
// (dense_map.h). A send/ACK round trip therefore performs zero heap
// allocations once the slabs have reached the run's in-flight high-water
// mark — a property enforced by the allocation-counter regression tests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/dense_map.h"
#include "common/ids.h"
#include "obs/broker_health.h"
#include "common/inline_function.h"
#include "common/slot_map.h"
#include "event/scheduler.h"
#include "net/overlay_network.h"
#include "pubsub/packet.h"
#include "routing/rto_estimator.h"
#include "routing/transport_observer.h"

namespace dcrd {

class FlightRecorder;
class LogLinearHistogram;

struct HopTransportConfig {
  bool adaptive_rto = false;
  RtoConfig rto;
  // Peer-death detection (off by default). After `peer_death_threshold`
  // consecutive copy give-ups on a directed link with no intervening ACK,
  // the sender declares the peer dead: every copy still pending on that
  // link fails fast (done(false), so the protocol reroutes immediately per
  // Algorithm 2), new sends on it fail without burning transmissions, and
  // a control-class probe loop with exponential backoff + deterministic
  // jitter runs until the peer answers, which revives the link. The
  // silence window is the Jacobson/Karels RTO state's own m-timeout
  // budget — no second timer hierarchy.
  bool peer_death = false;
  int peer_death_threshold = 2;
  // Probe backoff: first probe after the link RTO, doubling per unanswered
  // attempt (capped at 6 doublings), clamped to `probe_max_interval`, with
  // a ±`probe_jitter` spread keyed on (directed link, attempt) so probers
  // never synchronize.
  SimDuration probe_max_interval = SimDuration::Seconds(10);
  double probe_jitter = 0.25;
  TransportObserver* observer = nullptr;
  // Optional flight recorder receiving enqueue/send/retransmit/ACK/
  // dedup/budget-exhausted lifecycle events. Must outlive the transport.
  FlightRecorder* recorder = nullptr;
  // Optional histogram fed one sample per unambiguous hop ACK round trip
  // (microseconds). Must outlive the transport.
  LogLinearHistogram* rtt_histogram = nullptr;
};

// Cumulative counters, readable at any time (pending_copies is the live
// in-flight count; it must be 0 after the scheduler drains).
struct TransportStats {
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t spurious_retransmissions = 0;
  std::uint64_t rtt_samples = 0;
  std::size_t pending_copies = 0;
  // Crash–recovery bookkeeping (all 0 unless the knobs are on).
  std::uint64_t peer_deaths = 0;     // directed links declared dead
  std::uint64_t peer_probes = 0;     // probe transmissions sent
  std::uint64_t peer_revivals = 0;   // dead links revived by an answer
  std::uint64_t crash_copies_killed = 0;  // pendings killed by own crash
};

class HopTransport {
 public:
  // Invoked (once per copy) when a data packet reaches `at`; `from` is the
  // transmitting neighbour.
  using ArrivalHandler =
      std::function<void(NodeId at, const Packet& packet, NodeId from)>;

  // Completion callback; inline storage only (see inline_function.h), so
  // protocol captures stay id-sized by construction.
  using DoneCallback = InlineFunction<void(bool)>;

  // Hard cap on per-copy transmissions (paper parameter m). The per-copy
  // send-instant log is a fixed array of this size, so growing the budget
  // beyond it is a compile-time decision, not silent regrowth.
  static constexpr int kMaxTransmissionBudget = 16;

  HopTransport(OverlayNetwork& network, ArrivalHandler on_arrival,
               HopTransportConfig config = {})
      : network_(network),
        on_arrival_(std::move(on_arrival)),
        config_(config),
        rto_(config.rto),
        seen_copies_(network.graph().node_count()),
        prev_seen_copies_(network.graph().node_count()),
        next_copy_seq_(network.graph().node_count(), 0) {
    if (config_.peer_death) {
      peer_.resize(network.graph().edge_count() * 2);
    }
  }

  HopTransport(const HopTransport&) = delete;
  HopTransport& operator=(const HopTransport&) = delete;

  // Sends `packet` from `from` over `link`, retrying until `max_tx` total
  // transmissions. `ack_timeout` is the fixed per-transmission timer in
  // fixed mode and the estimator seed in adaptive mode. `done` may start
  // further sends; it is always invoked from a scheduler event (never
  // re-entrantly).
  void SendReliable(NodeId from, LinkId link, Packet packet, int max_tx,
                    SimDuration ack_timeout, DoneCallback done);

  // Ages receiver-side duplicate-suppression state to bound memory over
  // multi-hour runs. Rotation (not a hard clear): a spurious retransmission
  // of an already-handed-up copy can still be in flight when the monitoring
  // epoch turns over, so the previous generation stays consulted for one
  // more epoch. A copy id is only forgotten after two consecutive epochs
  // without an arrival — far longer than any transmission stays airborne.
  void ClearDedupState() {
    // Swap instead of move: both tables keep their steady-state capacity,
    // so the rotation itself allocates nothing. Dedup state is kept per
    // receiving broker so a crash can void exactly one broker's memory.
    for (std::size_t node = 0; node < seen_copies_.size(); ++node) {
      swap(prev_seen_copies_[node], seen_copies_[node]);
      seen_copies_[node].clear();
    }
    // Ack-tombstones follow the same bound: an ACK more than an epoch late
    // is not worth accounting for.
    expired_.clear();
  }

  // Fail-stop crash of `node`: every copy it was retransmitting dies
  // without a done() (the sender's state died with it — the protocol layer
  // drops its episodes in the same instant), its duplicate-suppression
  // memory is voided (a post-restart retransmission will be handed up
  // again — the crash-aware invariant checker budgets for exactly this),
  // and its own peer-death bookkeeping resets. Returns the number of
  // pending copies killed, for the kBrokerDown trace record.
  std::size_t OnBrokerCrash(NodeId node);

  // True when the sender `from` currently believes the far end of `link`
  // is alive (always true with peer-death detection off). Routers consult
  // this in next-hop selection so known-dead peers are skipped instead of
  // burning a full m-transmission budget.
  [[nodiscard]] bool PeerAlive(NodeId from, LinkId link) const {
    if (peer_.empty()) return true;
    return !peer_[DirectedIndex(from, link)].dead;
  }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] TransportStats stats() const {
    TransportStats out = stats_;
    out.rtt_samples = rto_.sample_count();
    out.pending_copies = pending_.size();
    return out;
  }
  [[nodiscard]] const RtoEstimator& rto() const { return rto_; }

  // Accumulates per-broker health into `out` (indexed by broker id, caller-
  // zeroed): live in-flight copies by sending broker, dedup table sizes
  // (current + previous generation) by receiving broker, and — in adaptive
  // mode — each broker's largest sampled outgoing-link RTO. Read-only and
  // allocation-free; the time-series sampler calls it every sim-time tick.
  void SampleBrokerHealth(std::vector<BrokerHealth>& out) const;

 private:
  struct Pending {
    NodeId from;
    LinkId link;
    Packet packet;
    int transmissions_left = 0;
    SimDuration ack_timeout;  // fixed timer / adaptive seed
    DoneCallback done;
    EventHandle timer;
    std::uint64_t copy_id = 0;
    int transmissions_made = 0;
    // Send instant per transmission index; fixed-size so the slab entry
    // never regrows.
    std::array<SimTime, kMaxTransmissionBudget> tx_times{};
  };

  // Accounting stub left behind when a copy's send budget expires before
  // its ACK returns; lets the straggling ACK still be classified. `from`
  // is kept because the RTO estimator is keyed per directed link.
  struct Expired {
    NodeId from;
    LinkId link;
    int transmissions_made = 0;
    std::array<SimTime, kMaxTransmissionBudget> tx_times{};
  };

  // Payload of one in-flight data transmission. Pooled so the arrival
  // callback captures only {this, handle}; the packet snapshot is recycled
  // slab storage, not a heap-owning lambda capture.
  struct WireCopy {
    Packet packet;
    std::uint64_t copy_id = 0;
    int tx_index = 0;
    NodeId to;
    NodeId from;
    LinkId link;
  };

  // Sender-side liveness belief about the far end of one directed link.
  // `round` is the ABA guard: every revive or crash-reset bumps it, and a
  // probe timer that captured an older round is a no-op when it fires, so
  // a stale timer can never probe (or revive) on behalf of a newer death.
  struct PeerState {
    int consecutive_failures = 0;
    int probe_attempts = 0;
    bool dead = false;
    std::uint32_t round = 0;
    SimDuration probe_base;
    EventHandle probe_timer;
  };

  // `in_timer_event` == the call is running inside the copy's own timeout
  // dispatch: the retransmission timer is then re-armed in place
  // (RearmCurrentAfter) instead of released and re-scheduled — the capture
  // is identical across the whole m-transmission chain, so the callback
  // slot, not just its contents, is reused.
  void TransmitOnce(SlotHandle pending_slot, bool in_timer_event);
  void HandleTimeout(SlotHandle pending_slot);
  void HandleDataArrival(SlotHandle wire_slot);
  void HandleAckArrival(SlotHandle pending_slot, std::uint64_t copy_id,
                        int tx_index);

  // Globally unique copy id for a copy sent by `from`: broker id in the
  // top bits, broker-local counter below.
  [[nodiscard]] std::uint64_t MakeCopyId(NodeId from) {
    std::uint64_t& seq = next_copy_seq_[from.underlying()];
    DCRD_CHECK(seq < (std::uint64_t{1} << 40))
        << "per-broker copy counter overflow";
    return (static_cast<std::uint64_t>(from.underlying()) + 1) << 40 | seq++;
  }

  [[nodiscard]] std::size_t DirectedIndex(NodeId from, LinkId link) const {
    const EdgeSpec& edge = network_.graph().edge(link);
    return link.underlying() * 2 + (from == edge.a ? 0 : 1);
  }
  // A copy on (from, link) exhausted its budget / was acknowledged.
  void NoteHopFailure(NodeId from, LinkId link, SimDuration seed);
  void NoteHopSuccess(NodeId from, LinkId link);
  void DeclarePeerDead(NodeId from, LinkId link, SimDuration seed);
  // Fails every pending copy on (from, link) fast: done(false) each, so
  // the protocol reroutes now instead of after m timeouts.
  std::size_t FailFastPending(NodeId from, LinkId link);
  // `rearm` == running inside the probe timer's own dispatch; the probe
  // chain then re-arms its slot in place. The reused capture's `round` is
  // still current: SendProbe only reaches ScheduleProbe after checking
  // round == state.round, and nothing bumps the round in between.
  void ScheduleProbe(NodeId from, LinkId link, bool rearm);
  void SendProbe(NodeId from, LinkId link, std::uint32_t round);
  [[nodiscard]] SimDuration ProbeInterval(std::size_t didx,
                                          const PeerState& state) const;

  OverlayNetwork& network_;
  ArrivalHandler on_arrival_;
  HopTransportConfig config_;
  RtoEstimator rto_;
  TransportStats stats_;
  SlotMap<Pending> pending_;
  SlotMap<WireCopy> wire_;
  // Packet scratch for the arrival path: the wire slot is released before
  // the protocol handler runs (the handler may send, growing the slab), so
  // the payload is swapped here first. Buffer capacity circulates between
  // the scratch and the slab — no allocation either way.
  Packet arrival_scratch_;
  DenseIdMap<Expired> expired_;
  // Receiver-side dedup, one generation pair per broker: a broker crash
  // clears that broker's entries alone. Copy ids are globally unique and
  // target exactly one receiver, so partitioning by receiver is
  // behaviour-preserving when no one ever crashes.
  std::vector<DenseIdSet> seen_copies_;
  std::vector<DenseIdSet> prev_seen_copies_;
  // Directed-link peer liveness (sized only when peer_death is on).
  std::vector<PeerState> peer_;
  // Scratch for fail-fast sweeps (collect-then-act over the slot map);
  // capacity persists across sweeps.
  std::vector<SlotHandle> sweep_scratch_;
  // Per-sending-broker copy-id counters (see MakeCopyId).
  std::vector<std::uint64_t> next_copy_seq_;
};

}  // namespace dcrd
