#include "routing/hop_transport.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace dcrd {

void HopTransport::SendReliable(NodeId from, LinkId link, Packet packet,
                                int max_tx, SimDuration ack_timeout,
                                DoneCallback done) {
  DCRD_CHECK(max_tx >= 1);
  DCRD_CHECK(max_tx <= kMaxTransmissionBudget)
      << "transmission budget " << max_tx << " exceeds the compile-time cap "
      << kMaxTransmissionBudget;
  const SlotHandle slot = pending_.Acquire();
  Pending& pending = *pending_.Get(slot);
  pending.from = from;
  pending.link = link;
  // Move-assignment; the slot's previous packet buffers are released into
  // `packet`'s husk, the slab keeps no stale heap state.
  pending.packet = std::move(packet);
  pending.transmissions_left = max_tx;
  pending.ack_timeout = ack_timeout;
  pending.done = std::move(done);
  pending.timer = EventHandle{};
  pending.copy_id = MakeCopyId(from);
  pending.transmissions_made = 0;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(TraceEventKind::kEnqueue,
                             pending.packet.message().id.value,
                             pending.copy_id, from,
                             network_.graph().edge(link).OtherEnd(from), link,
                             0, static_cast<std::uint16_t>(max_tx));
  }
  if (!PeerAlive(from, link)) {
    // The far end is known dead: fail without burning a single
    // transmission so the protocol reroutes immediately. Routed through
    // the ordinary budget-exhaustion path (zero transmissions made) so
    // done() still fires from a scheduler event, never re-entrantly.
    pending.transmissions_left = 0;
    pending.timer = network_.scheduler().ScheduleAfter(
        SimDuration::Zero(), [this, slot] { HandleTimeout(slot); });
    return;
  }
  TransmitOnce(slot, /*in_timer_event=*/false);
}

void HopTransport::TransmitOnce(SlotHandle pending_slot, bool in_timer_event) {
  Pending* pending = pending_.Get(pending_slot);
  DCRD_CHECK(pending != nullptr);
  DCRD_CHECK(pending->transmissions_left > 0);
  --pending->transmissions_left;
  const int tx_index = pending->transmissions_made++;
  pending->tx_times[static_cast<std::size_t>(tx_index)] =
      network_.scheduler().now();
  ++stats_.transmissions;
  if (tx_index > 0) ++stats_.retransmissions;

  const std::uint64_t copy_id = pending->copy_id;
  const std::uint64_t packet_id = pending->packet.message().id.value;
  const NodeId from = pending->from;
  const LinkId link = pending->link;
  const NodeId to = network_.graph().edge(link).OtherEnd(from);
  if (config_.recorder != nullptr) {
    config_.recorder->Record(tx_index == 0 ? TraceEventKind::kHopSend
                                           : TraceEventKind::kRetransmit,
                             packet_id, copy_id, from, to, link, 0,
                             static_cast<std::uint16_t>(tx_index));
  }
  const TraceContext trace{packet_id, copy_id};
  const Resolution res =
      network_.ResolveSend(from, link, TrafficClass::kData, trace);
  if (res.delivered) {
    // The copy sent on the wire is snapshotted into the wire slab; the slab
    // owns it so a later SendReliable cannot mutate a packet already in
    // flight, and the callback capture stays two words.
    const SlotHandle wire_slot = wire_.Acquire();
    WireCopy& wire = *wire_.Get(wire_slot);
    wire.packet = pending->packet;  // copy-assign: reuses buffer capacity
    wire.copy_id = copy_id;
    wire.tx_index = tx_index;
    wire.to = to;
    wire.from = from;
    wire.link = link;
    network_.scheduler().ScheduleKeyed(
        res.at, res.k1, res.k2,
        [this, wire_slot] { HandleDataArrival(wire_slot); });
    // The receiver will ACK the copy the instant it lands; that ACK's fate
    // is already decidable here (pure schedules + the copy's content key),
    // so resolve it now and schedule HandleAckArrival with the data leg.
    const std::uint64_t ack_key =
        (copy_id << 4) | static_cast<std::uint64_t>(tx_index);
    const Resolution ack =
        network_.ResolveAckAt(to, link, res.at, ack_key, trace);
    if (ack.delivered) {
      network_.scheduler().ScheduleKeyed(
          ack.at, ack.k1, ack.k2, [this, pending_slot, copy_id, tx_index] {
            HandleAckArrival(pending_slot, copy_id, tx_index);
          });
    }
  }
  const SimDuration timeout =
      config_.adaptive_rto
          ? rto_.TimeoutFor(DirectedIndex(from, link), pending->ack_timeout,
                            tx_index, copy_id)
          : pending->ack_timeout;
  if (config_.recorder != nullptr) {
    // kTimerArmed repurposes `peer` to carry the armed timeout in
    // microseconds (the real peer is derivable from node+link). Clamp below
    // the kNoId sentinel; sim timeouts are far under 71 minutes in practice.
    const std::int64_t timeout_us = timeout.micros();
    const std::uint32_t timeout_field =
        timeout_us < 0 ? 0u
        : timeout_us >= static_cast<std::int64_t>(TraceRecord::kNoId)
            ? TraceRecord::kNoId - 1
            : static_cast<std::uint32_t>(timeout_us);
    config_.recorder->Record(TraceEventKind::kTimerArmed, packet_id, copy_id,
                             from, NodeId(timeout_field), link,
                             config_.adaptive_rto ? 1 : 0,
                             static_cast<std::uint16_t>(tx_index));
  }
  // Retransmissions ride the scheduler's re-arm path: the timeout action
  // stays in its slab slot for the whole m-transmission chain.
  pending->timer =
      in_timer_event
          ? network_.scheduler().RearmCurrentAfter(timeout)
          : network_.scheduler().ScheduleAfter(timeout, [this, pending_slot] {
              HandleTimeout(pending_slot);
            });
}

void HopTransport::HandleTimeout(SlotHandle pending_slot) {
  Pending* pending = pending_.Get(pending_slot);
  if (pending == nullptr) return;  // ACK won the race
  if (pending->transmissions_left > 0) {
    TransmitOnce(pending_slot, /*in_timer_event=*/true);
    return;
  }
  // Budget exhausted. A badly late ACK may still straggle home — leave a
  // tombstone so it can feed the RTO estimator and have the copy's
  // retransmissions classified as spurious instead of silently dropping
  // the accounting on the floor.
  Expired& expired = *expired_.TryEmplace(pending->copy_id).first;
  expired.from = pending->from;
  expired.link = pending->link;
  expired.transmissions_made = pending->transmissions_made;
  expired.tx_times = pending->tx_times;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(
        TraceEventKind::kBudgetExhausted, pending->packet.message().id.value,
        pending->copy_id, pending->from,
        network_.graph().edge(pending->link).OtherEnd(pending->from),
        pending->link, 0,
        static_cast<std::uint16_t>(pending->transmissions_made));
  }
  const NodeId from = pending->from;
  const LinkId link = pending->link;
  const SimDuration seed = pending->ack_timeout;
  const int made = pending->transmissions_made;
  DoneCallback done = std::move(pending->done);
  // Release before invoking: `done` may start further sends that reuse the
  // slot or grow the slab.
  pending_.Release(pending_slot);
  // Count the silent budget toward peer-death detection *before* invoking
  // done, so a reroute triggered by this give-up already sees the link
  // marked dead. Fast-failed copies (zero transmissions) are not new
  // evidence of silence.
  if (config_.peer_death && made > 0) NoteHopFailure(from, link, seed);
  if (done) done(false);
}

void HopTransport::HandleDataArrival(SlotHandle wire_slot) {
  WireCopy* wire = wire_.Get(wire_slot);
  DCRD_CHECK(wire != nullptr);
  const std::uint64_t copy_id = wire->copy_id;
  const NodeId at = wire->to;
  const NodeId from = wire->from;
  const LinkId link = wire->link;
  // Park the payload in the scratch slot and recycle the wire slot before
  // any handler runs: the arrival handler may send onward, and slab growth
  // would invalidate `wire`. Swapping circulates buffer capacity between
  // scratch and slab instead of allocating.
  std::swap(arrival_scratch_, wire->packet);
  wire_.Release(wire_slot);
  const Packet& packet = arrival_scratch_;

  // The receiver's unconditional ACK — "always ACK, the sender may have
  // missed an earlier one" — was already resolved and scheduled by the
  // sender at transmission time (see TransmitOnce): its outcome depends
  // only on schedules and the copy's content key, never on receiver state,
  // so nothing needs to be emitted here.
  // Hand to the protocol only on first sight of this copy. Insert into the
  // current generation even when the previous one already knows the copy,
  // so repeat stragglers keep their suppression entry alive across
  // rotations.
  const bool in_prev = prev_seen_copies_[at.underlying()].Contains(copy_id);
  const bool handed_up =
      seen_copies_[at.underlying()].Insert(copy_id) && !in_prev;
  if (config_.observer != nullptr) {
    config_.observer->OnCopyArrival(copy_id, at, from, packet, handed_up);
  }
  if (!handed_up) {
    if (config_.recorder != nullptr) {
      config_.recorder->Record(TraceEventKind::kDedupSuppress,
                               packet.message().id.value, copy_id, at, from,
                               link);
    }
    return;
  }
  on_arrival_(at, packet, from);
}

void HopTransport::HandleAckArrival(SlotHandle pending_slot,
                                    std::uint64_t copy_id, int tx_index) {
  Pending* pending = pending_.Get(pending_slot);
  // Generation check doubles as the identity check: a live slot reused by a
  // later copy has a new generation, so a stale ACK cannot match it.
  if (pending == nullptr || pending->copy_id != copy_id) {
    // Not in flight any more: a duplicate ACK, or the first ACK of a copy
    // whose budget already expired. The latter still carries information —
    // the hop was alive, just slower than m timeouts.
    const Expired* expired = expired_.Find(copy_id);
    if (expired == nullptr) return;
    const SimDuration rtt =
        network_.scheduler().now() -
        expired->tx_times[static_cast<std::size_t>(tx_index)];
    rto_.OnSample(DirectedIndex(expired->from, expired->link), rtt);
    if (config_.rtt_histogram != nullptr) {
      config_.rtt_histogram->Record(rtt.micros());
    }
    if (config_.recorder != nullptr) {
      // aux8=1: the ACK outlived its copy's budget (counts as an RTT sample
      // but closed nothing).
      config_.recorder->Record(
          TraceEventKind::kAck, TraceRecord::kNoPacket, copy_id, NodeId(),
          NodeId(), expired->link, 1, static_cast<std::uint16_t>(tx_index));
    }
    if (expired->transmissions_made - 1 > tx_index) {
      stats_.spurious_retransmissions += static_cast<std::uint64_t>(
          expired->transmissions_made - 1 - tx_index);
    }
    expired_.Erase(copy_id);  // later ACKs of this copy are duplicates
    return;
  }
  // Unambiguous round-trip sample: this ACK answers transmission tx_index.
  const SimDuration rtt =
      network_.scheduler().now() -
      pending->tx_times[static_cast<std::size_t>(tx_index)];
  rto_.OnSample(DirectedIndex(pending->from, pending->link), rtt);
  if (config_.rtt_histogram != nullptr) {
    config_.rtt_histogram->Record(rtt.micros());
  }
  if (config_.recorder != nullptr) {
    config_.recorder->Record(
        TraceEventKind::kAck, pending->packet.message().id.value, copy_id,
        pending->from,
        network_.graph().edge(pending->link).OtherEnd(pending->from),
        pending->link, 0, static_cast<std::uint16_t>(tx_index));
  }
  // Every transmission after tx_index happened although the hop was alive
  // and this ACK was already on its way — those were spurious.
  if (pending->transmissions_made - 1 > tx_index) {
    stats_.spurious_retransmissions += static_cast<std::uint64_t>(
        pending->transmissions_made - 1 - tx_index);
  }
  network_.scheduler().Cancel(pending->timer);
  const NodeId from = pending->from;
  const LinkId link = pending->link;
  DoneCallback done = std::move(pending->done);
  pending_.Release(pending_slot);
  if (config_.peer_death) NoteHopSuccess(from, link);
  if (done) done(true);
}

std::size_t HopTransport::OnBrokerCrash(NodeId node) {
  // 1. The crashed broker's retransmission state dies: release its pending
  // copies without invoking done — the protocol layer drops the matching
  // episodes in the same instant, so nothing waits on these. Timers are
  // cancelled; a handle that somehow fired anyway goes stale on Release.
  sweep_scratch_.clear();
  pending_.ForEachLiveHandle([&](SlotHandle handle) {
    const Pending* pending = pending_.Get(handle);
    if (pending != nullptr && pending->from == node) {
      sweep_scratch_.push_back(handle);
    }
  });
  std::size_t killed = 0;
  for (const SlotHandle handle : sweep_scratch_) {
    Pending* pending = pending_.Get(handle);
    if (pending == nullptr) continue;
    network_.scheduler().Cancel(pending->timer);
    pending->done = DoneCallback();  // drop, never invoke
    pending_.Release(handle);
    ++killed;
  }
  stats_.crash_copies_killed += killed;
  // 2. Duplicate-suppression memory is volatile: void exactly this
  // broker's generations. A retransmission of a copy it ACKed pre-crash
  // will be handed up a second time after restart — legal, and budgeted
  // for by the crash-aware invariant checker. (Its ACK tombstones become
  // unreachable — copy ids are never reused — and age out with the next
  // epoch rotation.)
  seen_copies_[node.underlying()].clear();
  prev_seen_copies_[node.underlying()].clear();
  // 3. Its own peer-liveness beliefs and probe loops are volatile too.
  if (!peer_.empty()) {
    for (const Neighbor& neighbor : network_.graph().neighbors(node)) {
      PeerState& state = peer_[DirectedIndex(node, neighbor.link)];
      network_.scheduler().Cancel(state.probe_timer);
      state.probe_timer = EventHandle{};
      state.dead = false;
      state.consecutive_failures = 0;
      state.probe_attempts = 0;
      ++state.round;
    }
  }
  return killed;
}

void HopTransport::NoteHopFailure(NodeId from, LinkId link,
                                  SimDuration seed) {
  PeerState& state = peer_[DirectedIndex(from, link)];
  if (state.dead) return;  // probes own recovery from here
  if (++state.consecutive_failures < config_.peer_death_threshold) return;
  DeclarePeerDead(from, link, seed);
}

void HopTransport::NoteHopSuccess(NodeId from, LinkId link) {
  PeerState& state = peer_[DirectedIndex(from, link)];
  state.consecutive_failures = 0;
  if (!state.dead) return;
  // An answer (data-path ACK or probe reply) revives the link.
  state.dead = false;
  ++state.round;  // stale probe timers for the dead period go inert
  network_.scheduler().Cancel(state.probe_timer);
  state.probe_timer = EventHandle{};
  ++stats_.peer_revivals;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(
        TraceEventKind::kPeerAlive, TraceRecord::kNoPacket, 0, from,
        network_.graph().edge(link).OtherEnd(from), link, 0,
        static_cast<std::uint16_t>(state.probe_attempts));
  }
  state.probe_attempts = 0;
}

void HopTransport::DeclarePeerDead(NodeId from, LinkId link,
                                   SimDuration seed) {
  PeerState& state = peer_[DirectedIndex(from, link)];
  state.dead = true;
  state.probe_attempts = 0;
  ++state.round;
  // Probe cadence grows from the link's own RTO estimate (adaptive) or the
  // protocol's ACK timeout (fixed) — the same silence window that tripped
  // the detection.
  state.probe_base =
      config_.adaptive_rto ? rto_.Rto(DirectedIndex(from, link), seed) : seed;
  if (state.probe_base <= SimDuration::Zero()) {
    state.probe_base = SimDuration::Millis(1);
  }
  ++stats_.peer_deaths;
  const std::size_t failed = FailFastPending(from, link);
  if (config_.recorder != nullptr) {
    config_.recorder->Record(
        TraceEventKind::kPeerDead, TraceRecord::kNoPacket, 0, from,
        network_.graph().edge(link).OtherEnd(from), link, 0,
        static_cast<std::uint16_t>(failed));
  }
  ScheduleProbe(from, link, /*rearm=*/false);
}

std::size_t HopTransport::FailFastPending(NodeId from, LinkId link) {
  sweep_scratch_.clear();
  pending_.ForEachLiveHandle([&](SlotHandle handle) {
    const Pending* pending = pending_.Get(handle);
    if (pending != nullptr && pending->from == from &&
        pending->link == link) {
      sweep_scratch_.push_back(handle);
    }
  });
  // The done() callbacks below reroute, assigning new copy ids and RTO
  // jitter in invocation order, so the sweep order is part of the sample
  // path. Sweep in copy-id order (send order per broker) rather than slot
  // order, which reflects the slab's whole allocation history.
  std::sort(sweep_scratch_.begin(), sweep_scratch_.end(),
            [this](SlotHandle a, SlotHandle b) {
              return pending_.Get(a)->copy_id < pending_.Get(b)->copy_id;
            });
  // A done() below may re-enter SendReliable (reroute) and mutate the slot
  // map; handles collected above that get recycled meanwhile go stale and
  // are skipped. The re-entrant send sees the link already dead, so it
  // takes the zero-transmission fast-fail path, never this sweep again.
  std::size_t failed = 0;
  for (const SlotHandle handle : sweep_scratch_) {
    Pending* pending = pending_.Get(handle);
    if (pending == nullptr) continue;
    network_.scheduler().Cancel(pending->timer);
    if (config_.recorder != nullptr) {
      config_.recorder->Record(
          TraceEventKind::kBudgetExhausted,
          pending->packet.message().id.value, pending->copy_id,
          pending->from, network_.graph().edge(link).OtherEnd(from), link, 1,
          static_cast<std::uint16_t>(pending->transmissions_made));
    }
    DoneCallback done = std::move(pending->done);
    pending_.Release(handle);
    ++failed;
    if (done) done(false);
  }
  return failed;
}

void HopTransport::ScheduleProbe(NodeId from, LinkId link, bool rearm) {
  const std::size_t didx = DirectedIndex(from, link);
  PeerState& state = peer_[didx];
  const std::uint32_t round = state.round;
  // Whole dead periods re-arm one probe action in place; a fresh slot is
  // only taken when a new death starts a chain.
  state.probe_timer =
      rearm ? network_.scheduler().RearmCurrentAfter(ProbeInterval(didx, state))
            : network_.scheduler().ScheduleAfter(
                  ProbeInterval(didx, state),
                  [this, from, link, round] { SendProbe(from, link, round); });
}

void HopTransport::SendProbe(NodeId from, LinkId link, std::uint32_t round) {
  PeerState& state = peer_[DirectedIndex(from, link)];
  // ABA guard: a revive, crash reset, or newer death bumped the round and
  // this timer is stale.
  if (!state.dead || state.round != round) return;
  ++state.probe_attempts;
  ++stats_.peer_probes;
  // Control-class echo: the probe reaching the peer triggers a reply; the
  // reply reaching the prober revives the link. Either leg dying in a
  // crashed/failed hop simply leaves the timer loop running.
  network_.TransmitEcho(from, link, [this, from, link, round] {
    PeerState& s = peer_[DirectedIndex(from, link)];
    if (s.dead && s.round == round) NoteHopSuccess(from, link);
  });
  ScheduleProbe(from, link, /*rearm=*/true);
}

void HopTransport::SampleBrokerHealth(std::vector<BrokerHealth>& out) const {
  pending_.ForEachLiveHandle([&](SlotHandle handle) {
    const Pending* pending = pending_.Get(handle);
    const std::size_t broker = pending->from.underlying();
    if (broker < out.size()) ++out[broker].pending_copies;
  });
  const std::size_t nodes = std::min(out.size(), seen_copies_.size());
  for (std::size_t node = 0; node < nodes; ++node) {
    out[node].dedup_entries +=
        seen_copies_[node].size() + prev_seen_copies_[node].size();
  }
  if (config_.adaptive_rto) {
    const Graph& graph = network_.graph();
    for (std::size_t e = 0; e < graph.edge_count(); ++e) {
      const LinkId link(static_cast<LinkId::underlying_type>(e));
      const EdgeSpec& edge = graph.edge(link);
      for (int dir = 0; dir < 2; ++dir) {
        const std::size_t didx = e * 2 + static_cast<std::size_t>(dir);
        // Unfed estimators report 0, never the seed.
        if (!rto_.HasSample(didx)) continue;
        const NodeId from = dir == 0 ? edge.a : edge.b;
        if (from.underlying() >= out.size()) continue;
        const std::uint64_t rto_us = static_cast<std::uint64_t>(
            rto_.Rto(didx, SimDuration::Micros(0)).micros());
        std::uint64_t& slot = out[from.underlying()].rto_us;
        if (rto_us > slot) slot = rto_us;
      }
    }
  }
}

SimDuration HopTransport::ProbeInterval(std::size_t didx,
                                        const PeerState& state) const {
  const int shift = state.probe_attempts < 6 ? state.probe_attempts : 6;
  double us = static_cast<double>(state.probe_base.micros()) *
              static_cast<double>(1 << shift);
  const double cap = static_cast<double>(config_.probe_max_interval.micros());
  if (us > cap) us = cap;
  // Deterministic jitter keyed on (directed link, attempt): reproducible,
  // yet concurrent probers never fire in lock-step.
  std::uint64_t s = (didx + 1) * 0x9E3779B97F4A7C15ULL;
  s ^= 0xC2B2AE3D27D4EB4FULL *
       (static_cast<std::uint64_t>(state.probe_attempts) + 1);
  const double unit =
      static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
  us *= 1.0 + config_.probe_jitter * (2.0 * unit - 1.0);
  if (us < 1.0) us = 1.0;
  return SimDuration::Micros(static_cast<std::int64_t>(us));
}

}  // namespace dcrd
