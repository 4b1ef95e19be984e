// Fixed-size POD trace record: the unit the flight recorder stores.
//
// One record is one sim-time-stamped packet-lifecycle (or topology) event.
// The layout is deliberately flat — six integers and three small fields,
// 40 bytes, trivially copyable — so the recorder's ring buffer is a plain
// preallocated vector that is written by assignment and never touches the
// heap on the record path. Identifiers are stored as raw integers (the
// DenseId wrappers unwrap to uint32) with the id's own kInvalid sentinel
// meaning "not applicable to this event kind".
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace dcrd {

// Packet-lifecycle and topology event kinds. The enumerators are part of
// the JSONL trace format (see TraceEventName); append, never renumber.
enum class TraceEventKind : std::uint8_t {
  kPublish = 0,       // message enters the system at its publisher broker
  kEnqueue,           // a copy is handed to the hop transport (SendReliable)
  kHopSend,           // first transmission of a copy over a link
  kRetransmit,        // transmission index >= 1 of a copy
  kAck,               // hop ACK returned to the sender (aux8=1: post-expiry)
  kBudgetExhausted,   // m transmissions spent, copy given up (done(false))
  kReroute,           // DCRD sending list exhausted, packet sent upstream
  kDeliver,           // message handed up to a subscriber broker
  kDrop,              // transmission or responsibility dropped (aux8=reason)
  kDedupSuppress,     // duplicate copy arrival suppressed by the receiver
  kLinkDown,          // link transitioned up -> down at a failure epoch
  kLinkUp,            // link transitioned down -> up
  kGrayStart,         // gray episode began on a link
  kGrayEnd,           // gray episode ended
  kRebuild,           // routers recomputed sending lists (monitoring epoch)
  kTimerArmed,        // retransmission timer armed after a transmission.
                      // `peer` is repurposed to carry the armed timeout in
                      // microseconds (the real peer is derivable from
                      // node+link); aux16 = transmission index, aux8 = 1
                      // when the adaptive RTO chose the timeout.
  kBrokerDown,        // broker crashed at a failure epoch (volatile state
                      // lost); aux16 = number of pending copies killed
  kBrokerUp,          // broker restarted with empty volatile state
  kPeerDead,          // transport declared a peer dead (ACK silence);
                      // aux16 = pending copies failed fast on the link
  kPeerAlive,         // a probe answered: peer declared alive again;
                      // aux16 = probe attempts it took
  kResyncStart,       // restarted broker began gossip resync of <d,r> state
  kResyncDone,        // resync converged; sending lists trustworthy again.
                      // `copy` is repurposed to carry the resync duration
                      // in microseconds
};

inline constexpr int kTraceEventKindCount = 22;

// Why a kDrop happened; stored in TraceRecord::aux8.
enum class TraceDropReason : std::uint8_t {
  kNone = 0,
  kNodeDown,       // an endpoint broker was down at transmission entry
  kLinkDown,       // the link was down at transmission entry
  kLoss,           // background Bernoulli(Pl) loss
  kGray,           // gray episode's extra loss draw
  kUndeliverable,  // router gave up a responsibility (no next hop left)
  kCrash,          // a crashed broker dropped the transmission (at entry
                   // or mid-flight — fail-stop drops queued traffic too)
};

constexpr std::string_view TraceEventName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPublish: return "publish";
    case TraceEventKind::kEnqueue: return "enqueue";
    case TraceEventKind::kHopSend: return "hop-send";
    case TraceEventKind::kRetransmit: return "retransmit";
    case TraceEventKind::kAck: return "ack";
    case TraceEventKind::kBudgetExhausted: return "budget-exhausted";
    case TraceEventKind::kReroute: return "reroute";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kDrop: return "drop";
    case TraceEventKind::kDedupSuppress: return "dedup-suppress";
    case TraceEventKind::kLinkDown: return "link-down";
    case TraceEventKind::kLinkUp: return "link-up";
    case TraceEventKind::kGrayStart: return "gray-start";
    case TraceEventKind::kGrayEnd: return "gray-end";
    case TraceEventKind::kRebuild: return "rebuild";
    case TraceEventKind::kTimerArmed: return "timer-armed";
    case TraceEventKind::kBrokerDown: return "broker-down";
    case TraceEventKind::kBrokerUp: return "broker-up";
    case TraceEventKind::kPeerDead: return "peer-dead";
    case TraceEventKind::kPeerAlive: return "peer-alive";
    case TraceEventKind::kResyncStart: return "resync-start";
    case TraceEventKind::kResyncDone: return "resync-done";
  }
  return "unknown";
}

// Inverse of TraceEventName; false when `name` matches no kind.
constexpr bool TraceEventFromName(std::string_view name,
                                  TraceEventKind* out) {
  for (int i = 0; i < kTraceEventKindCount; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    if (TraceEventName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

constexpr std::string_view TraceDropReasonName(TraceDropReason reason) {
  switch (reason) {
    case TraceDropReason::kNone: return "none";
    case TraceDropReason::kNodeDown: return "node-down";
    case TraceDropReason::kLinkDown: return "link-down";
    case TraceDropReason::kLoss: return "loss";
    case TraceDropReason::kGray: return "gray";
    case TraceDropReason::kUndeliverable: return "undeliverable";
    case TraceDropReason::kCrash: return "crash";
  }
  return "unknown";
}

struct TraceRecord {
  static constexpr std::uint64_t kNoPacket =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint32_t kNoId =
      std::numeric_limits<std::uint32_t>::max();

  std::int64_t t_us = 0;                 // sim time of the event
  std::uint64_t packet = kNoPacket;      // MessageId::value; kNoPacket = n/a
  std::uint64_t copy = 0;                // transport copy id; 0 = n/a
  std::uint32_t node = kNoId;            // acting broker (sender/receiver)
  std::uint32_t peer = kNoId;            // counterpart broker (kNoId = n/a)
  std::uint32_t link = kNoId;            // link involved (kNoId = n/a)
  TraceEventKind kind = TraceEventKind::kPublish;
  std::uint8_t aux8 = 0;                 // drop reason / late-ack flag
  std::uint16_t aux16 = 0;               // tx index / group size / class
};

static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 40, "keep the record cache-friendly");

// Per-transmission identity threaded from the transport into the network so
// link-level drops can name the packet and copy they killed. Default
// (kNoPacket) marks traffic the tracer has no packet identity for (probes,
// control gossip).
struct TraceContext {
  std::uint64_t packet = TraceRecord::kNoPacket;
  std::uint64_t copy = 0;
};

}  // namespace dcrd
