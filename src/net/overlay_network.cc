#include "net/overlay_network.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"

namespace dcrd {

namespace {

// One inline helper per drop branch keeps the hot path readable: a disabled
// recorder costs a null check, and the TraceContext fields only get touched
// when tracing is actually on.
inline void RecordDrop(FlightRecorder* recorder, const TraceContext& trace,
                       TraceDropReason reason, NodeId from, NodeId to,
                       LinkId link, TrafficClass cls) {
  if (recorder == nullptr) return;
  recorder->Record(TraceEventKind::kDrop, trace.packet, trace.copy, from, to,
                   link, static_cast<std::uint8_t>(reason),
                   static_cast<std::uint16_t>(cls));
}

}  // namespace

Resolution OverlayNetwork::ResolveAt(NodeId from, LinkId link,
                                     TrafficClass cls, SimTime when,
                                     std::uint64_t draw_key,
                                     const TraceContext& trace) {
  const EdgeSpec& edge = graph_.edge(link);
  DCRD_CHECK(from == edge.a || from == edge.b)
      << from << " is not an endpoint of " << link;
  TrafficCounters& counter = counters_[static_cast<std::size_t>(cls)];
  ++counter.attempted;

  const NodeId to = edge.OtherEnd(from);
  if (!node_failures_.IsUp(from, when) || !node_failures_.IsUp(to, when)) {
    ++counter.dropped_node_failure;
    RecordDrop(recorder_, trace, TraceDropReason::kNodeDown, from, to, link,
               cls);
    return {};
  }
  // Fail-stop crash at entry: a crashed sender transmits nothing, a crashed
  // receiver's inbound queue is void. Counter-based — no draw, so the
  // loss/gray sample paths are untouched when the schedule is disabled.
  if (crashes_.enabled() &&
      (!crashes_.Up(from, when) || !crashes_.Up(to, when))) {
    ++counter.dropped_crash;
    RecordDrop(recorder_, trace, TraceDropReason::kCrash, from, to, link,
               cls);
    return {};
  }
  if (!failures_.IsUp(link, when)) {
    ++counter.dropped_failure;
    RecordDrop(recorder_, trace, TraceDropReason::kLinkDown, from, to, link,
               cls);
    return {};
  }
  // Keyed draws: the (directed link, class) pair is the major address word,
  // `draw_key` the minor one; the salt separates loss / gray / jitter so
  // enabling one process never perturbs another's sample path.
  const bool from_is_a = from == edge.a;
  const std::size_t didx = link.underlying() * 2 + (from_is_a ? 0 : 1);
  const std::uint64_t draw_a = (static_cast<std::uint64_t>(didx) << 2) |
                               static_cast<std::uint64_t>(cls);
  if (config_.loss_rate > 0.0 &&
      KeyedBernoulli(config_.loss_rate, seed_, draw_a, draw_key, 0)) {
    ++counter.dropped_loss;
    RecordDrop(recorder_, trace, TraceDropReason::kLoss, from, to, link, cls);
    return {};
  }
  const LinkDirection direction =
      from_is_a ? LinkDirection::kAToB : LinkDirection::kBToA;
  const double gray_loss = gray_.ExtraLoss(link, direction, when);
  if (gray_loss > 0.0 &&
      KeyedBernoulli(gray_loss, seed_, draw_a, draw_key, 1)) {
    ++counter.dropped_gray;
    RecordDrop(recorder_, trace, TraceDropReason::kGray, from, to, link, cls);
    return {};
  }

  SimTime departure = when;
  if (config_.serialization > SimDuration::Zero() &&
      cls != TrafficClass::kAck) {
    // FIFO per directed link: wait out the packets ahead of us.
    departure = std::max(when, link_free_[didx]);
    link_free_[didx] = departure + config_.serialization;
  }
  SimDuration propagation = edge.delay;
  if (config_.delay_jitter > 0.0 && cls != TrafficClass::kAck) {
    const double unit = KeyedUnit(seed_, draw_a, draw_key, 2);
    propagation = SimDuration::FromMillisF(
        edge.delay.millis() *
        (1.0 - config_.delay_jitter + 2.0 * config_.delay_jitter * unit));
  }
  if (cls == TrafficClass::kAck) {
    propagation = SimDuration::FromMillisF(edge.delay.millis() *
                                           config_.ack_delay_factor);
  }
  // Delay inflation applies to data and ACK alike (an ACK direction with
  // ack_delay_factor 0 stays instantaneous — the paper's out-of-band model).
  propagation = SimDuration::FromMillisF(
      propagation.millis() * gray_.DelayFactor(link, direction, when));
  // Fail-stop drops in-flight traffic: the receiver must stay up for the
  // whole queuing + propagation window or the packet dies with the crash.
  // Checked after the delay math (arrival time is needed) but before the
  // delivered count so every attempt still lands in exactly one bucket.
  if (crashes_.enabled() &&
      !crashes_.UpThroughout(to, when, departure + propagation)) {
    ++counter.dropped_crash;
    RecordDrop(recorder_, trace, TraceDropReason::kCrash, from, to, link,
               cls);
    return {};
  }
  ++counter.delivered;
  Resolution res;
  res.delivered = true;
  res.at = departure + propagation;
  return res;
}

Resolution OverlayNetwork::ResolveSend(NodeId from, LinkId link,
                                       TrafficClass cls, TraceContext trace) {
  const EdgeSpec& edge = graph_.edge(link);
  const std::size_t didx =
      link.underlying() * 2 + (from == edge.a ? 0 : 1);
  // The attempt counter advances once per resolution whether or not any
  // draw branch is reached: it is an address, not a stream position, so
  // skipping it on early drops would buy nothing and cost a branch.
  const std::uint64_t draw_key =
      draw_seq_[didx * 3 + static_cast<std::size_t>(cls)]++;
  Resolution res =
      ResolveAt(from, link, cls, scheduler_.now(), draw_key, trace);
  if (res.delivered) {
    res.k1 = Scheduler::PackK1(scheduler_.now().micros(), from.underlying());
    res.k2 = arrival_seq_[from.underlying()]++;
  }
  return res;
}

Resolution OverlayNetwork::ResolveAckAt(NodeId acker, LinkId link, SimTime t1,
                                        std::uint64_t ack_key,
                                        TraceContext trace) {
  Resolution res =
      ResolveAt(acker, link, TrafficClass::kAck, t1, ack_key, trace);
  if (res.delivered) {
    res.k1 = Scheduler::PackK1(t1.micros(), acker.underlying());
    res.k2 = ack_key;
  }
  return res;
}

bool OverlayNetwork::Transmit(NodeId from, LinkId link, TrafficClass cls,
                              Scheduler::Action on_delivered,
                              TraceContext trace) {
  const Resolution res = ResolveSend(from, link, cls, trace);
  if (!res.delivered) return false;
  scheduler_.ScheduleKeyed(res.at, res.k1, res.k2, std::move(on_delivered));
  return true;
}

bool OverlayNetwork::TransmitEcho(NodeId from, LinkId link,
                                  Scheduler::Action on_echo,
                                  TraceContext trace) {
  const Resolution req = ResolveSend(from, link, TrafficClass::kControl,
                                     trace);
  if (!req.delivered) return false;
  SlotHandle slot;  // stays invalid for fire-and-forget round trips
  if (on_echo) {
    Scheduler::Action* value;
    slot = echo_slots_.Acquire(&value);
    *value = std::move(on_echo);
  }
  const NodeId to = graph_.edge(link).OtherEnd(from);
  scheduler_.ScheduleKeyed(req.at, req.k1, req.k2,
                           [this, to, link, slot] {
                             HandleEchoRequest(to, link, slot);
                           });
  return true;
}

void OverlayNetwork::HandleEchoRequest(NodeId at_node, LinkId link,
                                       SlotHandle origin_slot) {
  // The reply is ordinary control traffic resolved with the receiver's own
  // counters at the moment the request lands.
  const Resolution reply =
      ResolveSend(at_node, link, TrafficClass::kControl, {});
  if (reply.delivered) {
    scheduler_.ScheduleKeyed(reply.at, reply.k1, reply.k2,
                             [this, origin_slot] { RunEcho(origin_slot); });
    return;
  }
  // Reply dropped: the completion never runs; release its slot.
  if (origin_slot.valid()) DCRD_CHECK(echo_slots_.Release(origin_slot));
}

void OverlayNetwork::RunEcho(SlotHandle slot) {
  if (!slot.valid()) return;  // fire-and-forget round trip completed
  Scheduler::Action* action = echo_slots_.Get(slot);
  DCRD_CHECK(action != nullptr) << "echo completion slot went stale";
  // Run in place (slab addresses are stable even if the callback arms new
  // echoes), then release; the callback's own round/generation guards
  // decide whether its effect is still wanted.
  (*action)();
  echo_slots_.Release(slot);
}

}  // namespace dcrd
