// Regression tests for the transport's zero-steady-state-allocation
// property. After the pending/wire slabs, the copy records and the
// tombstone table reach the run's high-water mark, a complete send/ACK
// round trip — including retransmissions, timeout timers, and dedup
// bookkeeping — and a send that
// fails fast on a dead peer must not touch the heap allocator. Packets in
// the measured region carry empty destination/path vectors so caller-side
// buffers cannot mask a transport allocation. Everything is seeded, so the
// test is deterministic.
#include <gtest/gtest.h>

#include <cstdint>

#include "event/scheduler.h"
#include "graph/topology.h"
#include "net/overlay_network.h"
#include "routing/hop_transport.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

Packet EmptyPacket(std::uint64_t id) {
  Message message;
  message.id = MessageId(id);
  message.topic = TopicId(0);
  message.publisher = NodeId(0);
  message.publish_time = SimTime::Zero();
  return Packet(message, {});
}

struct Fixture {
  Graph graph = Line(2, SimDuration::Millis(10));
  Scheduler scheduler;
  LinkId link = *graph.FindEdge(NodeId(0), NodeId(1));
};

// One round = a burst of sends, a full drain, and a dedup-epoch rotation —
// the same cycle the engine drives once per monitoring epoch.
void RunRound(Fixture& f, HopTransport& transport, int burst, int max_tx,
              std::uint64_t& id, std::uint64_t& acks) {
  for (int i = 0; i < burst; ++i) {
    transport.SendReliable(NodeId(0), f.link, EmptyPacket(++id), max_tx,
                           SimDuration::Millis(25),
                           [&acks](bool ok) { acks += ok ? 1 : 0; });
  }
  f.scheduler.Run();
  transport.ClearDedupState();
}

TEST(HopTransportAllocTest, SendAckRoundTripIsAllocationFreeAfterWarmup) {
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1));
  std::uint64_t arrivals = 0;
  HopTransport transport(network,
                         [&arrivals](NodeId, const Packet&, NodeId) {
                           ++arrivals;
                         });
  std::uint64_t id = 0;
  std::uint64_t acks = 0;
  // Warm-up: reach the in-flight high-water mark (64 concurrent copies) in
  // every slab, copy records included.
  for (int round = 0; round < 3; ++round) {
    RunRound(f, transport, /*burst=*/64, /*max_tx=*/1, id, acks);
  }

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    RunRound(f, transport, /*burst=*/64, /*max_tx=*/1, id, acks);
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "send/ACK round trip allocated " << delta.bytes << " bytes";
  EXPECT_EQ(acks, 64u * 103u);
  EXPECT_EQ(arrivals, 64u * 103u);
  EXPECT_EQ(transport.pending_count(), 0u);
  EXPECT_EQ(transport.stats().copy_records, 0u);
}

TEST(HopTransportAllocTest, LossyRetransmissionPathIsAllocationFreeToo) {
  // Heavy loss exercises the full machinery: retransmissions, timeout
  // rescheduling, give-up tombstones, straggler-ACK classification, and the
  // adaptive RTO estimator — all of it slab- or table-backed.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(7, 0.0), 0.5,
                         Rng(7));
  HopTransportConfig config;
  config.adaptive_rto = true;
  std::uint64_t arrivals = 0;
  HopTransport transport(network,
                         [&arrivals](NodeId, const Packet&, NodeId) {
                           ++arrivals;
                         },
                         config);
  std::uint64_t id = 0;
  std::uint64_t acks = 0;
  // Warm up with a 4x larger burst than the measured rounds. Per-round
  // insert counts into the tombstone table are loss-dependent random
  // variables; a same-sized warm-up can land just under a growth threshold
  // that a later round crosses. A 256-copy burst drives every slab and
  // table to a capacity strictly above anything a 64-copy round can need.
  for (int round = 0; round < 3; ++round) {
    RunRound(f, transport, /*burst=*/256, /*max_tx=*/4, id, acks);
  }

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    RunRound(f, transport, /*burst=*/64, /*max_tx=*/4, id, acks);
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "lossy round trip allocated " << delta.bytes << " bytes";
  EXPECT_GT(acks, 0u);
  EXPECT_GT(arrivals, 0u);
  EXPECT_EQ(transport.pending_count(), 0u);
  EXPECT_EQ(transport.stats().copy_records, 0u);
}

TEST(HopTransportAllocTest, FastFailsOnADeadPeerAreAllocationFree) {
  // Over a permanently-down link, peer-death detection declares the peer
  // dead after two give-ups, and every later send fails fast without a
  // transmission. Such a copy has no ACK in flight, so it leaves no
  // tombstone: with no dedup-epoch rotation in between, a stream of them
  // must not grow any table. The probe loop never drains, so each round
  // runs to a deadline.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 1.0), 0.0,
                         Rng(1));
  HopTransportConfig config;
  config.peer_death = true;
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {},
                         config);
  std::uint64_t id = 0;
  std::uint64_t failures = 0;
  const auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      transport.SendReliable(NodeId(0), f.link, EmptyPacket(++id),
                             /*max_tx=*/1, SimDuration::Millis(25),
                             [&failures](bool ok) { failures += ok ? 0 : 1; });
    }
    f.scheduler.RunUntil(f.scheduler.now() + SimDuration::Millis(50));
  };
  // Warm-up: the first round's copies time out, which declares the peer
  // dead; the next rounds fail fast and bring the slabs and the wheel to
  // the round's high-water mark.
  for (int r = 0; r < 3; ++r) round();
  ASSERT_FALSE(transport.PeerAlive(NodeId(0), f.link));

  AllocProbe probe;
  for (int r = 0; r < 100; ++r) round();
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "fast-failing sends allocated " << delta.bytes << " bytes";
  EXPECT_EQ(failures, 64u * 103u);
  EXPECT_EQ(network.counters(TrafficClass::kData).attempted, 64u);
  EXPECT_EQ(transport.stats().peer_deaths, 1u);
  EXPECT_EQ(transport.pending_count(), 0u);
  EXPECT_EQ(transport.stats().copy_records, 0u);
}

}  // namespace
}  // namespace dcrd
