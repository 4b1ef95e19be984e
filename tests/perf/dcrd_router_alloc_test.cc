// Zero-steady-state-allocation contract of the DCRD data plane. Once the
// router's episode pool, message records and scratch buffers, the
// transport's slabs and copy records and the scheduler have reached the
// run's high-water mark, a
// complete Algorithm 2 cycle — publish, group by next hop, forward,
// ACK / retransmit / time out, mark a silent hop tried, reroute upstream,
// deliver — must not touch the heap allocator. Rebuild (a new epoch's
// tables) allocates by design and runs outside the measured region.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dcrd/dcrd_router.h"
#include "event/scheduler.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "pubsub/subscriptions.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocCounts;
using test::AllocProbe;

class CountingSink final : public DeliverySink {
 public:
  void OnDelivered(const Message&, NodeId, SimTime) override { ++count; }
  std::uint64_t count = 0;
};

// Counts copies handed up at a broker already on their routing path:
// rerouted-back packets.
class RerouteCounter final : public TransportObserver {
 public:
  void OnCopyArrival(std::uint64_t, NodeId at, NodeId, const Packet& packet,
                     bool handed_up) override {
    if (handed_up && packet.OnRoutingPath(at)) ++count;
  }
  std::uint64_t count = 0;
};

// Publisher 0 with subscribers 1, 2, 3 on a square 0-1-2-3-0. The monitor
// measured a healthy overlay, so node 0 sends subscribers 1 and 2 one
// shared copy via 1, and node 1's list toward 2 starts with the 1-2 link.
// On the wire that link is dead: node 1 transmits twice (m = 2), marks it
// tried and reroutes back to 0, which sends via 3. Link 2-3 fails in about
// half the seconds; then node 3's hop to 2 goes silent too, 3 reroutes
// back to 0, and 0, out of options, drops subscriber 2. Rounds start on
// whole seconds, so both shapes recur throughout. The failures are the
// only loss: random loss would make the largest routing path a buffer
// ever carries a rare event, which no bounded warm-up can be sure to hit.
struct Fixture {
  Fixture()
      : graph(MakeGraph()),
        wire(1, std::vector<double>{0.0, 1.0, 0.5, 0.0}),
        measured(1, 0.0),
        network(graph, scheduler, wire, /*loss_rate=*/0.0, Rng(5)),
        monitor(graph, measured, LinkMonitorConfig{}, Rng(6)) {
    monitor.MeasureAt(SimTime::Zero());
    topic = subscriptions.AddTopic(NodeId(0));
    for (std::uint32_t v = 1; v < 4; ++v) {
      subscriptions.AddSubscription(topic, NodeId(v),
                                    SimDuration::Millis(1000));
    }
  }

  static Graph MakeGraph() {
    Graph g(4);
    g.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));   // link 0
    g.AddEdge(NodeId(1), NodeId(2), SimDuration::Millis(1));   // link 1
    g.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(20));  // link 2
    g.AddEdge(NodeId(3), NodeId(0), SimDuration::Millis(20));  // link 3
    return g;
  }

  RouterContext Context() {
    RouterContext context;
    context.network = &network;
    context.subscriptions = &subscriptions;
    context.sink = &sink;
    context.max_transmissions = 2;
    context.transport_observer = &reroutes;
    return context;
  }

  Graph graph;
  Scheduler scheduler;
  FailureSchedule wire;
  FailureSchedule measured;
  OverlayNetwork network;
  LinkMonitor monitor;
  SubscriptionTable subscriptions;
  TopicId topic;
  CountingSink sink;
  RerouteCounter reroutes;
  std::uint64_t next_id = 0;
};

// One epoch's data plane: `burst` publishes at the next whole second,
// drained.
AllocCounts RunRound(Fixture& f, DcrdRouter& router, int burst) {
  const std::int64_t second = f.scheduler.now().micros() / 1'000'000 + 1;
  f.scheduler.RunUntil(SimTime::FromMicros(second * 1'000'000));
  AllocProbe probe;
  for (int i = 0; i < burst; ++i) {
    Message message;
    message.id = MessageId(f.next_id++);
    message.topic = f.topic;
    message.publisher = NodeId(0);
    message.publish_time = f.scheduler.now();
    router.Publish(message);
  }
  f.scheduler.Run();
  return probe.delta();
}

TEST(DcrdRouterAllocTest, ForwardAckRerouteCycleIsAllocationFreeAfterWarmup) {
  Fixture f;
  DcrdRouter router(f.Context());
  // Warm up: bursts 4x the measured ones size every pool and message
  // record past anything a measured round can need, then measured-size
  // rounds let
  // the buffers of the slots those rounds recycle reach their high water.
  for (int round = 0; round < 53; ++round) {
    router.Rebuild(f.monitor.view());
    RunRound(f, router, /*burst=*/round < 3 ? 64 : 16);
  }
  const std::uint64_t delivered_before = f.sink.count;
  const std::uint64_t reroutes_before = f.reroutes.count;
  const std::uint64_t retx_before =
      router.transport_stats().retransmissions;
  const std::uint64_t silent_before =
      f.network.counters(TrafficClass::kData).dropped_failure;
  const std::uint64_t dropped_before = router.dropped_undeliverable();

  AllocCounts measured;
  for (int round = 0; round < 100; ++round) {
    router.Rebuild(f.monitor.view());  // outside the measured region
    const AllocCounts delta = RunRound(f, router, /*burst=*/16);
    measured.allocations += delta.allocations;
    measured.bytes += delta.bytes;
    ASSERT_EQ(router.open_episodes(), 0U);
    // Drained: every record went with the last packet of its message.
    ASSERT_EQ(router.message_records(), 0U);
    ASSERT_EQ(router.transport_stats().copy_records, 0U);
  }
  EXPECT_EQ(measured.allocations, 0U)
      << "DCRD cycle allocated " << measured.bytes << " bytes";
  // The measured rounds really ran the whole cycle.
  EXPECT_GT(f.sink.count - delivered_before, 100U * 16U * 2U);
  EXPECT_GT(f.reroutes.count - reroutes_before, 100U);
  EXPECT_GT(router.transport_stats().retransmissions - retx_before, 100U);
  EXPECT_GT(f.network.counters(TrafficClass::kData).dropped_failure -
                silent_before,
            100U);
  EXPECT_GT(router.dropped_undeliverable() - dropped_before, 100U);
  EXPECT_EQ(router.transport_stats().pending_copies, 0U);
}

}  // namespace
}  // namespace dcrd
