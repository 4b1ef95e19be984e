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
//  * Because each ACK's fate and landing instant are known at send time,
//    a retransmission timer exists only while the ACK can lose the race:
//    a transmission whose ACK lands strictly before its timeout arms no
//    timer (the copy is closed before the timer would fire — by that ACK,
//    an earlier one, a crash or a fail-fast — so it could only be
//    cancelled; on an equal tick the event keys decide, so a tie keeps
//    it). Likewise a give-up leaves an ACK tombstone only when one of the
//    copy's ACKs was scheduled. Both rules are exact: every event that
//    runs, and every tombstone lookup that hits, is the same as when every
//    timer is armed and every give-up writes a tombstone.
//
// Timer modes — the timeout a transmission runs under:
//  * Fixed (default, paper parity): every transmission of a copy runs
//    under the caller-supplied `ack_timeout` (2*alpha_hat-style),
//    bit-identical to the paper's model.
//  * Adaptive (config.adaptive_rto): timeouts come from a per-link
//    Jacobson/Karels RTO estimator fed by observed ACK round-trips and
//    seeded from `ack_timeout` until the first sample, with exponential
//    backoff plus deterministic jitter across the m retransmissions (see
//    rto_estimator.h). ACKs identify the transmission they answer, so the
//    transport also counts *spurious* retransmissions — copies retransmitted
//    although an earlier transmission's ACK was merely late.
//  In both modes the timeout is computed, and a kTimerArmed trace record
//  carries it, for every transmission, whether or not a wheel entry is
//  armed behind it.
//
// Storage layout (the hot part): per-copy sender state lives in a pooled
// slab (slot_map.h) whose handles ride inside the scheduler/network
// callbacks, in-flight wire payloads live in a second slab so callback
// captures stay within the inline budget, and the receiver's memory of
// each copy is an arrival record in a third slab. The record lives exactly
// as long as the copy can still land: the copy's Pending and each of its
// delivered transmissions still on the wire hold one reference, and copy
// ids are never reused, so a released record can never be asked for
// again. The ACK tombstones of given-up copies with an ACK still in flight
// are an open-addressing table (dense_map.h). A send/ACK round trip, and a
// fail-fast send to a dead peer, therefore perform zero heap allocations
// once the slabs have reached the run's in-flight high-water mark — a
// property enforced by the allocation-counter regression tests.
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
  // a ±25% spread keyed on (directed link, attempt) so probers never
  // synchronize.
  SimDuration probe_max_interval = SimDuration::Seconds(10);
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
  // Live arrival records (see HopTransport); 0 after the scheduler drains.
  std::size_t copy_records = 0;
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

  // Invoked with a copy's owner tag (see SendReliable) when the copy's
  // arrival record is released, i.e. when no transmission of the copy can
  // land any more. It runs inside transport paths (arrivals, ACKs,
  // give-ups, crash and fail-fast sweeps), so it must not call back into
  // the transport.
  using RetireHandler = InlineFunction<void(std::uint64_t owner)>;

  // Hard cap on per-copy transmissions (paper parameter m). The per-copy
  // send-instant log is a fixed array of this size, so growing the budget
  // beyond it is a compile-time decision, not silent regrowth.
  static constexpr int kMaxTransmissionBudget = 16;

  HopTransport(OverlayNetwork& network, ArrivalHandler on_arrival,
               HopTransportConfig config = {}, RetireHandler on_retire = {})
      : network_(network),
        on_arrival_(std::move(on_arrival)),
        on_retire_(std::move(on_retire)),
        config_(config),
        rto_(config.rto),
        crash_round_(network.graph().node_count(), 0),
        dedup_counts_(network.graph().node_count()),
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
  // re-entrantly). The packet is swapped into a pooled slot, so `packet`
  // comes back holding that slot's previous buffers (stale contents,
  // warm capacity): a caller that sends from one scratch Packet recycles
  // buffers instead of allocating fresh ones per copy. A non-zero `owner`
  // is handed to the retire handler once the copy's arrival record is
  // released.
  void SendReliable(NodeId from, LinkId link, Packet&& packet, int max_tx,
                    SimDuration ack_timeout, DoneCallback done,
                    std::uint64_t owner = 0);

  // Starts a new dedup epoch. The receiver remembers a copy for the epoch
  // of its last arrival and the next one: a spurious retransmission of an
  // already-handed-up copy can still be in flight when the monitoring
  // epoch turns over, so it is still suppressed one epoch later, and a copy
  // is only forgotten after two consecutive epochs without an arrival —
  // far longer than any transmission stays airborne. The per-broker counts
  // SampleBrokerHealth reports rotate with the epoch.
  void ClearDedupState() {
    ++dedup_epoch_;
    for (DedupCount& count : dedup_counts_) {
      count.previous = count.current;
      count.current = 0;
    }
    // Ack-tombstones follow the same bound: an ACK more than an epoch late
    // is not worth accounting for.
    expired_.clear();
  }

  // Fail-stop crash of `node`: every copy it was retransmitting dies
  // without a done() (the sender's state died with it — the protocol layer
  // drops its episodes in the same instant), its duplicate-suppression
  // memory is voided by bumping its crash round, which no arrival record
  // written before the crash matches (a post-restart retransmission will be
  // handed up again — the crash-aware invariant checker budgets for exactly
  // this), and its own peer-death bookkeeping resets. Returns the number of
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
    out.copy_records = copies_.size();
    return out;
  }

  // Accumulates per-broker health into `out` (indexed by broker id, caller-
  // zeroed): live in-flight copies by sending broker, the copies each
  // receiving broker remembers (those that arrived since its last crash in
  // the current or the previous dedup epoch), and — in adaptive
  // mode — each broker's largest sampled outgoing-link RTO. Read-only and
  // allocation-free; the time-series sampler calls it every sim-time tick.
  void SampleBrokerHealth(std::vector<BrokerHealth>& out) const;

 private:
  // Sender state of one copy, from SendReliable until its ACK, give-up,
  // fail-fast or the sender's crash. `timer` is the current transmission's
  // retransmission timer, empty when that transmission's ACK beats it (or
  // the copy fails fast); `ack_scheduled` says whether any transmission's
  // ACK was scheduled, i.e. whether a give-up needs a tombstone.
  struct Pending {
    NodeId from;
    LinkId link;
    Packet packet;
    int transmissions_left = 0;
    SimDuration ack_timeout;  // fixed timer / adaptive seed
    DoneCallback done;
    EventHandle timer;
    std::uint64_t copy_id = 0;
    SlotHandle record;  // the copy's arrival record
    int transmissions_made = 0;
    bool ack_scheduled = false;
    // Send instant per transmission index; fixed-size so the slab entry
    // never regrows.
    std::array<SimTime, kMaxTransmissionBudget> tx_times{};
  };

  // Accounting stub left behind when a copy's send budget expires while
  // one of its ACKs is still in flight; lets the straggling ACK still be
  // classified. A copy with no ACK scheduled leaves none, since nothing
  // would ever look it up. `from` is kept because the RTO estimator is
  // keyed per directed link.
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
    SlotHandle record;  // the copy's arrival record
    int tx_index = 0;
    NodeId to;
    NodeId from;
    LinkId link;
  };

  // The receiver's memory of one copy, alive while the copy can still land:
  // one reference for its Pending and one per delivered transmission still
  // on the wire. The copy counts as remembered iff it arrived before, in
  // the receiver's current crash round, and in the current or the previous
  // dedup epoch.
  struct CopyRecord {
    std::uint32_t refs = 0;
    std::uint32_t epoch = 0;  // dedup epoch of the last arrival; 0 = none
    std::uint32_t round = 0;  // receiver's crash round at that arrival
    std::uint64_t owner = 0;  // SendReliable's tag; 0 = no retire call
  };

  // How many copies a broker remembers from the current and from the
  // previous dedup epoch (SampleBrokerHealth's dedup_entries).
  struct DedupCount {
    std::size_t current = 0;
    std::size_t previous = 0;
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

  // Sends one transmission of the pending copy and, unless its ACK is
  // due first, arms its ACK timeout; the timeout (HandleTimeout) calls
  // back here while budget remains.
  void TransmitOnce(SlotHandle pending_slot);
  void HandleTimeout(SlotHandle pending_slot);
  void HandleDataArrival(SlotHandle wire_slot);
  void HandleAckArrival(SlotHandle pending_slot, std::uint64_t copy_id,
                        int tx_index);
  // Releases a pending slot and its reference on the copy's record.
  void ReleasePending(SlotHandle pending_slot);
  // Drops one reference on a copy record; the last one releases the record
  // and hands its owner tag to the retire handler.
  void DropCopyRef(SlotHandle record_slot);

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
  // Arms the next probe of a dead (from, link), stamped with the current
  // death round; SendProbe re-arms it while the peer stays dead.
  void ScheduleProbe(NodeId from, LinkId link);
  void SendProbe(NodeId from, LinkId link, std::uint32_t round);
  [[nodiscard]] SimDuration ProbeInterval(std::size_t didx,
                                          const PeerState& state) const;

  OverlayNetwork& network_;
  ArrivalHandler on_arrival_;
  RetireHandler on_retire_;
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
  // Receiver-side dedup: one record per live copy, the current dedup epoch
  // (starting at 1, so a record's 0 means "never arrived") and one crash
  // round per broker, never reset. Copy ids target exactly one receiver,
  // so a broker's round guards every record it can be asked about.
  SlotMap<CopyRecord> copies_;
  std::uint32_t dedup_epoch_ = 1;
  std::vector<std::uint32_t> crash_round_;
  std::vector<DedupCount> dedup_counts_;
  // Directed-link peer liveness (sized only when peer_death is on).
  std::vector<PeerState> peer_;
  // Scratch for fail-fast sweeps (collect-then-act over the slot map);
  // capacity persists across sweeps.
  std::vector<SlotHandle> sweep_scratch_;
  // Per-sending-broker copy-id counters (see MakeCopyId).
  std::vector<std::uint64_t> next_copy_seq_;
};

}  // namespace dcrd
