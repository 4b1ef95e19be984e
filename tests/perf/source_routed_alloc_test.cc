// Zero-steady-state-allocation contract of the source-routed data plane
// that R-Tree, D-Tree, ORACLE and Multipath share. Once the router's
// message records, grouping and send scratch, the transport's slabs and
// copy records and the scheduler have reached the run's high-water mark,
// publishing a message — plan its routes into its record, group by (first
// hop, route tag), send — and forwarding a copy at an intermediate broker
// — deliver locally, look up each subscriber's next hop in the record,
// group, send, ACK / retransmit / give up — must not touch the heap
// allocator. Rebuild (a new epoch's trees and path sets) allocates by
// design and runs outside the measured region; ORACLE, which plans a fresh
// tree per message, is not covered.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "event/scheduler.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "pubsub/subscriptions.h"
#include "routing/multipath_router.h"
#include "routing/tree_router.h"
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

// Counts copies handed up after an intermediate broker forwarded them: the
// routing path holds the publisher and at least one forwarder.
class ForwardCounter final : public TransportObserver {
 public:
  void OnCopyArrival(std::uint64_t, NodeId, NodeId, const Packet& packet,
                     bool handed_up) override {
    if (handed_up && packet.routing_path().size() >= 2) ++count;
  }
  std::uint64_t count = 0;
};

// Publisher 0 with subscribers 1, 2, 3 on a square 0-1-2-3-0. R-Tree
// reaches 2 through 1. Multipath adds each subscriber's second path round
// the other side of the square, so brokers 1, 2 and 3 all forward copies
// that carry both route tags. Link 1-2 fails in about half the seconds
// (the monitor measured a healthy overlay): copies over it are sent twice
// (m = 2) and abandoned. Rounds start on whole seconds, so both shapes
// recur throughout; the failures are the only loss.
struct Fixture {
  Fixture()
      : graph(MakeGraph()),
        wire(1, std::vector<double>{0.0, 0.5, 0.0, 0.0}),
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
    context.transport_observer = &forwards;
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
  ForwardCounter forwards;
  std::uint64_t next_id = 0;
};

// One epoch: a rebuild at the next whole second, outside the probe, then
// `burst` publishes and the forwarding they start, drained inside it.
AllocCounts RunRound(Fixture& f, Router& router, int burst) {
  const std::int64_t second = f.scheduler.now().micros() / 1'000'000 + 1;
  f.scheduler.RunUntil(SimTime::FromMicros(second * 1'000'000));
  router.Rebuild(f.monitor.view());
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

TEST(SourceRoutedAllocTest, ForwardHopIsAllocationFreeAfterWarmup) {
  for (const bool multipath : {false, true}) {
    Fixture f;
    const std::unique_ptr<Router> router =
        multipath ? std::unique_ptr<Router>(
                        std::make_unique<MultipathRouter>(f.Context()))
                  : std::make_unique<TreeRouter>(f.Context(),
                                                 TreeKind::kShortestHop);
    SCOPED_TRACE(router->name());
    // Warm up: bursts 4x the measured ones size every pool, message record
    // and copy record past anything a measured round can need, then
    // measured-size rounds let the buffers of the slots those rounds
    // recycle reach their high water.
    for (int round = 0; round < 53; ++round) {
      RunRound(f, *router, /*burst=*/round < 3 ? 64 : 16);
    }
    const std::uint64_t delivered_before = f.sink.count;
    const std::uint64_t forwards_before = f.forwards.count;
    const std::uint64_t retx_before =
        router->transport_stats().retransmissions;
    const std::uint64_t silent_before =
        f.network.counters(TrafficClass::kData).dropped_failure;

    AllocCounts measured;
    for (int round = 0; round < 100; ++round) {
      const AllocCounts delta = RunRound(f, *router, /*burst=*/16);
      measured.allocations += delta.allocations;
      measured.bytes += delta.bytes;
      // Drained: every record went with the last copy of its message.
      ASSERT_EQ(router->message_records(), 0U);
      ASSERT_EQ(router->transport_stats().copy_records, 0U);
    }
    EXPECT_EQ(measured.allocations, 0U)
        << "publishing and forwarding allocated " << measured.bytes
        << " bytes";
    // The measured rounds really forwarded, retransmitted and gave up.
    EXPECT_GT(f.sink.count - delivered_before, 100U * 16U * 2U);
    EXPECT_GT(f.forwards.count - forwards_before, 100U * 4U);
    EXPECT_GT(router->transport_stats().retransmissions - retx_before, 100U);
    EXPECT_GT(f.network.counters(TrafficClass::kData).dropped_failure -
                  silent_before,
              100U);
    EXPECT_EQ(router->transport_stats().pending_copies, 0U);
  }
}

}  // namespace
}  // namespace dcrd
