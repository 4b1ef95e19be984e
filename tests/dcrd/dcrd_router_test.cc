#include "dcrd/dcrd_router.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/topology.h"
#include "obs/flight_recorder.h"
#include "routing/test_harness.h"

namespace dcrd {
namespace {

using testing::RecordingSink;
using testing::RouterHarness;

Graph Diamond() {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(2), NodeId(1), SimDuration::Millis(2));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(1));
  return graph;
}

TEST(DcrdRouterTest, DeliversAlongMinExpectedDelayPath) {
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  // With perfect links the expected-delay-optimal route is the shortest
  // delay path 0-2-1-3 (4 ms).
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(3)),
            SimTime::Zero() + SimDuration::Millis(4));
}

TEST(DcrdRouterTest, MulticastSharesCopies) {
  RouterHarness h(Line(4, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(3)));
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 3U);
}

TEST(DcrdRouterTest, PublisherColocatedSubscriber) {
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(0), SimDuration::Millis(10));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(0)));
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(1)));
}

TEST(DcrdRouterTest, SwitchesNeighborAfterAckTimeout) {
  // Diamond where the preferred first hop (2) is permanently dead but the
  // direct edge works: DCRD must fail over within one episode.
  const Graph graph = Diamond();
  const LinkId link02 = *graph.FindEdge(NodeId(0), NodeId(2));
  std::uint64_t seed = 0;
  for (; seed < 100'000; ++seed) {
    const FailureSchedule schedule(seed, 0.35);
    bool ok = true;
    // 0-2 down for the first 3 seconds; all other links up.
    for (int s = 0; s < 3 && ok; ++s) {
      const SimTime t = SimTime::FromMicros(s * 1'000'000);
      ok = !schedule.IsUp(link02, t);
      for (std::size_t e = 0; e < graph.edge_count() && ok; ++e) {
        const LinkId link(static_cast<LinkId::underlying_type>(e));
        if (link != link02) ok = schedule.IsUp(link, t);
      }
    }
    if (ok) break;
  }
  ASSERT_LT(seed, 100'000U);

  RouterHarness h(Diamond(), 0.35, 0.0, seed);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(3)));
  // Failover cost: one dead transmission to 2, ACK timeout (1 ms link delay
  // + 1 ms slack under the instant-ACK model), then 0-1-3 (11 ms): 13 ms.
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(3)),
            SimTime::Zero() + SimDuration::Millis(13));
}

TEST(DcrdRouterTest, ReroutesToUpstreamWhenSubtreeDead) {
  // Line 0-1-2 plus edge 0-3-2: node 1's only way to 2 is direct; if 1-2 is
  // dead, node 1 must bounce the packet back to 0, which reroutes via 3.
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(0), NodeId(3), SimDuration::Millis(20));
  graph.AddEdge(NodeId(3), NodeId(2), SimDuration::Millis(20));
  const LinkId link12 = *graph.FindEdge(NodeId(1), NodeId(2));

  std::uint64_t seed = 0;
  for (; seed < 200'000; ++seed) {
    const FailureSchedule schedule(seed, 0.3);
    bool ok = true;
    for (int s = 0; s < 3 && ok; ++s) {
      const SimTime t = SimTime::FromMicros(s * 1'000'000);
      ok = !schedule.IsUp(link12, t);
      for (std::size_t e = 0; e < graph.edge_count() && ok; ++e) {
        const LinkId link(static_cast<LinkId::underlying_type>(e));
        if (link != link12) ok = schedule.IsUp(link, t);
      }
    }
    if (ok) break;
  }
  ASSERT_LT(seed, 200'000U);

  RouterHarness h(std::move(graph), 0.3, 0.0, seed);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
  EXPECT_EQ(router.dropped_undeliverable(), 0U);
}

TEST(DcrdRouterTest, DropsWhenPublisherExhaustsAllOptions) {
  RouterHarness h(Line(2, SimDuration::Millis(10)), 1.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_FALSE(h.sink.Delivered(message.id, NodeId(1)));
  EXPECT_EQ(router.dropped_undeliverable(), 1U);
  EXPECT_TRUE(h.scheduler.empty());  // episode terminated cleanly
}

TEST(DcrdRouterTest, RerouteCapBoundsUpstreamLaunchesPerSubscriber) {
  // Line 0-1-2, publisher 0, subscriber 2. The monitor measured a healthy
  // overlay, so node 1's sending list for 2 names the 1-2 link; on the wire
  // that link is dead throughout, and 0-1 carries the publish in second 0
  // but is down in second 1, when node 1's list runs out and it reroutes
  // back to 0. Every reroute copy is lost, so the cap alone decides how
  // many node 1 launches: max(cap, 1).
  Graph graph(3);
  const LinkId link01 =
      graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(2), SimDuration::Millis(10));
  const std::vector<double> down_fraction = {0.5, 1.0};  // per link id
  const SimTime second0 = SimTime::Zero();
  const SimTime second1 = SimTime::FromMicros(1'000'000);
  std::uint64_t seed = 0;
  for (; seed < 1'000; ++seed) {
    const FailureSchedule schedule(seed, down_fraction);
    if (schedule.IsUp(link01, second0) && !schedule.IsUp(link01, second1)) {
      break;
    }
  }
  ASSERT_LT(seed, 1'000U);

  for (const auto& [cap, launches] :
       {std::pair{0, 1}, std::pair{1, 1}, std::pair{3, 3}}) {
    Scheduler scheduler;
    const FailureSchedule wire(seed, down_fraction);
    const FailureSchedule measured(seed, 0.0);
    OverlayNetwork network(graph, scheduler, wire, 0.0, Rng(seed));
    LinkMonitor monitor(graph, measured, LinkMonitorConfig{}, Rng(seed + 1));
    monitor.MeasureAt(SimTime::Zero());
    SubscriptionTable subscriptions;
    const TopicId topic = subscriptions.AddTopic(NodeId(0));
    subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
    RecordingSink sink;
    FlightRecorder recorder(scheduler);
    RouterContext context;
    context.network = &network;
    context.subscriptions = &subscriptions;
    context.sink = &sink;
    context.recorder = &recorder;
    DcrdConfig config;
    config.reroute_retry_cap = cap;
    DcrdRouter router(context, config);
    router.Rebuild(monitor.view());

    // Publish 5 ms before the boundary: 0->1 lands in second 0, and node
    // 1's 11 ms ACK timeout on 1->2 expires in second 1.
    scheduler.RunUntil(SimTime::FromMicros(995'000));
    Message message;
    message.id = MessageId(0);
    message.topic = topic;
    message.publisher = NodeId(0);
    message.publish_time = scheduler.now();
    router.Publish(message);
    scheduler.Run();

    int reroutes = 0;
    int sends_upstream = 0;
    for (std::size_t i = 0; i < recorder.size(); ++i) {
      const TraceRecord& record = recorder.at(i);
      if (record.node != 1 || record.peer != 0) continue;
      reroutes += record.kind == TraceEventKind::kReroute;
      sends_upstream += record.kind == TraceEventKind::kHopSend;
    }
    EXPECT_EQ(reroutes, launches) << "cap " << cap;
    EXPECT_EQ(sends_upstream, launches) << "cap " << cap;
    EXPECT_FALSE(sink.Delivered(message.id, NodeId(2))) << "cap " << cap;
    EXPECT_EQ(router.dropped_undeliverable(), 1U) << "cap " << cap;
    EXPECT_EQ(router.open_episodes(), 0U) << "cap " << cap;
  }
}

TEST(DcrdRouterTest, TablesExposedPerSubscriber) {
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const DestinationTables& tables = router.TablesFor(topic, NodeId(3));
  EXPECT_EQ(tables.subscriber, NodeId(3));
  EXPECT_TRUE(tables.converged);
  EXPECT_EQ(tables.per_node[3].dr, (DR{0.0, 1.0}));
  EXPECT_TRUE(tables.per_node[0].dr.reachable());
}

TEST(DcrdRouterTest, NoForwardingLoopsUnderChurn) {
  // Hammer a small overlay with many messages under heavy failures; the
  // run must terminate (no livelock) and data traffic stays bounded by the
  // episode/path-growth argument.
  Rng rng(31);
  RouterHarness h(RandomConnected(8, 3, rng), 0.15, 0.001, /*seed=*/5);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  for (std::uint32_t v = 1; v < 8; ++v) {
    h.subscriptions.AddSubscription(topic, NodeId(v),
                                    SimDuration::Millis(300));
  }
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  for (int i = 0; i < 50; ++i) {
    h.PublishVia(router, topic);
    h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Seconds(1));
  }
  h.scheduler.Run();
  EXPECT_TRUE(h.scheduler.empty());
  // 50 messages x 7 subscribers; loop-free forwarding keeps traffic sane.
  EXPECT_LT(h.network.counters(TrafficClass::kData).attempted, 50'000U);
  EXPECT_GT(h.sink.deliveries().size(), 300U);
}

TEST(DcrdRouterTest, BestEffortFallbackRescuesTightDeadlines) {
  // Deadline so tight no neighbour qualifies: with fallback the packet
  // still arrives (late); without it the publisher drops it.
  const SimDuration tight = SimDuration::Micros(100);
  for (const bool fallback : {true, false}) {
    RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
    const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
    h.subscriptions.AddSubscription(topic, NodeId(2), tight);
    DcrdConfig config;
    config.best_effort_fallback = fallback;
    DcrdRouter router(h.Context(), config);
    router.Rebuild(h.monitor.view());
    const Message message = h.PublishVia(router, topic);
    h.scheduler.Run();
    EXPECT_EQ(h.sink.Delivered(message.id, NodeId(2)), fallback);
  }
}

TEST(DcrdRouterTest, RetransmitsBeforeSwitchingWhenMIsTwo) {
  RouterHarness h(Line(2, SimDuration::Millis(10)), 1.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  DcrdRouter router(h.Context(/*m=*/2));
  router.Rebuild(h.monitor.view());
  h.PublishVia(router, topic);
  h.scheduler.Run();
  // Dead link, one neighbour: exactly m = 2 transmissions then a drop.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 2U);
  EXPECT_EQ(router.dropped_undeliverable(), 1U);
}

TEST(DcrdRouterTest, DuplicateFreshArrivalsSuppressed) {
  // Force an ACK loss so the sender retries a *different* neighbour while
  // the first copy was actually delivered; the subscriber must record the
  // message but the network must not melt. We approximate by running with
  // moderate loss and asserting global sanity.
  Rng rng(77);
  RouterHarness h(RandomConnected(10, 4, rng), 0.0, 0.05, /*seed=*/3);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  for (std::uint32_t v = 1; v < 10; v += 3) {
    h.subscriptions.AddSubscription(topic, NodeId(v),
                                    SimDuration::Millis(400));
  }
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  for (int i = 0; i < 100; ++i) {
    h.PublishVia(router, topic);
    h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Millis(1200));
  }
  h.scheduler.Run();
  EXPECT_TRUE(h.scheduler.empty());
  // Every (message, subscriber) pair delivered at least once despite loss.
  std::size_t delivered_pairs = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    for (std::uint32_t v = 1; v < 10; v += 3) {
      delivered_pairs += h.sink.Delivered(MessageId(id), NodeId(v)) ? 1 : 0;
    }
  }
  EXPECT_EQ(delivered_pairs, 300U);
}

// Publisher 0 and subscriber 2 on a triangle whose view claims the direct
// 0-2 link takes 0.1 ms; it takes 10 ms. Node 0 sends its first copy
// direct, gives up on it at the 1.1 ms ACK timeout and sends a second copy
// via 1, which delivers at 3.1 ms. The first copy still lands at 10 ms: a
// second fresh copy of the same (message, subscriber) at node 2, not
// rerouted back. `between` runs at 5 ms, between the two arrivals.
// Returns how often node 2 delivered the message.
std::size_t DeliveriesWithSecondFreshCopyAfter(
    const std::function<void(DcrdRouter&, const MonitoredView&)>& between) {
  Graph graph(3);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));   // link 0
  graph.AddEdge(NodeId(1), NodeId(2), SimDuration::Millis(1));   // link 1
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(10));  // link 2
  RouterHarness h(std::move(graph), 0.0, 0.0);
  const MonitoredView view(
      {SimDuration::Millis(1), SimDuration::Millis(1), SimDuration::Micros(100)},
      {1.0, 1.0, 1.0});
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(1000));
  DcrdRouter router(h.Context());
  router.Rebuild(view);
  const Message message = h.PublishVia(router, topic);
  h.scheduler.RunUntil(SimTime::Zero() + SimDuration::Millis(5));
  EXPECT_EQ(h.sink.CountFor(message.id), 1U);
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(2)),
            SimTime::Zero() + SimDuration::Micros(3100));
  between(router, view);
  h.scheduler.Run();
  // 0->2, 0->1 and 1->2; node 2 forwards nothing either way.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).delivered, 3U);
  EXPECT_EQ(router.open_episodes(), 0U);
  EXPECT_EQ(router.message_records(), 0U);
  EXPECT_EQ(router.transport_stats().copy_records, 0U);
  return h.sink.CountFor(message.id);
}

TEST(DcrdRouterTest, SecondFreshCopyWithinAnEpochIsSuppressed) {
  EXPECT_EQ(DeliveriesWithSecondFreshCopyAfter(
                [](DcrdRouter&, const MonitoredView&) {}),
            1U);
}

TEST(DcrdRouterTest, SecondFreshCopyAfterARebuildIsProcessedAgain) {
  EXPECT_EQ(DeliveriesWithSecondFreshCopyAfter(
                [](DcrdRouter& router, const MonitoredView& view) {
                  router.Rebuild(view);
                }),
            2U);
}

TEST(DcrdRouterTest, SecondFreshCopyAfterTheBrokersCrashIsProcessedAgain) {
  // Another broker's crash leaves node 2's memory alone.
  EXPECT_EQ(DeliveriesWithSecondFreshCopyAfter(
                [](DcrdRouter& router, const MonitoredView&) {
                  router.OnBrokerCrash(NodeId(1));
                  router.OnBrokerRestart(NodeId(1));
                }),
            1U);
  EXPECT_EQ(DeliveriesWithSecondFreshCopyAfter(
                [](DcrdRouter& router, const MonitoredView&) {
                  router.OnBrokerCrash(NodeId(2));
                  router.OnBrokerRestart(NodeId(2));
                }),
            2U);
}

TEST(DcrdRouterTest, RecordsDrainUnderCrashesAndPersistence) {
  // Broker crashes, link failures, loss and persistency mode together, with
  // the crash hooks and rebuilds driven the way the engine drives them:
  // episodes, copies and parked retries end in every order, and once the
  // scheduler drains no message record and no copy record is left.
  Rng rng(11);
  RouterHarness h(RandomConnected(12, 4, rng), 0.1, 0.05, /*seed=*/5);
  OverlayNetwork network(
      h.graph, h.scheduler, FailureSchedule(5, 0.1),
      OverlayNetworkConfig{/*loss_rate=*/0.05}, Rng(5), NodeFailureSchedule(),
      GrayFailureSchedule(),
      BrokerCrashSchedule(5, SimDuration::Seconds(10), SimDuration::Seconds(2)));
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  for (std::uint32_t v = 1; v < 12; v += 2) {
    h.subscriptions.AddSubscription(topic, NodeId(v),
                                    SimDuration::Millis(200));
  }
  DcrdConfig config;
  config.enable_persistence = true;
  config.persistence_max_retries = 3;
  RouterContext context = h.Context(/*m=*/2);
  context.network = &network;
  DcrdRouter router(context, config);
  router.Rebuild(h.monitor.view());

  const BrokerCrashSchedule& crashes = network.crashes();
  std::vector<bool> up(h.graph.node_count());
  for (std::size_t i = 0; i < up.size(); ++i) {
    up[i] = crashes.Up(NodeId(static_cast<std::uint32_t>(i)), SimTime::Zero());
  }
  int crash_hooks = 0;
  std::size_t most_records = 0;
  // 20 s at 20 publishes per second; crash hooks every second, a rebuild
  // every 5 s.
  for (int step = 1; step <= 400; ++step) {
    const SimTime now = SimTime::FromMicros(step * 50'000LL);
    h.scheduler.RunUntil(now);
    most_records = std::max(most_records, router.message_records());
    if (step % 20 == 0) {
      for (std::size_t i = 0; i < up.size(); ++i) {
        const NodeId node(static_cast<std::uint32_t>(i));
        if (crashes.Up(node, now) == up[i]) continue;
        up[i] = !up[i];
        if (up[i]) {
          router.OnBrokerRestart(node);
        } else {
          router.OnBrokerCrash(node);
          ++crash_hooks;
        }
      }
    }
    if (step % 100 == 0) router.Rebuild(h.monitor.view());
    if (crashes.Up(NodeId(0), now)) h.PublishVia(router, topic);
  }
  h.scheduler.Run();
  EXPECT_GT(crash_hooks, 0);
  EXPECT_GT(router.persistence_retries(), 0U);
  EXPECT_GT(h.sink.deliveries().size(), 0U);
  EXPECT_GT(most_records, 0U);
  EXPECT_TRUE(h.scheduler.empty());
  EXPECT_EQ(router.open_episodes(), 0U);
  EXPECT_EQ(router.message_records(), 0U);
  EXPECT_EQ(router.transport_stats().copy_records, 0U);
  EXPECT_EQ(router.transport_stats().pending_copies, 0U);
}

TEST(DcrdRouterTest, SolveStatsSumTheTablesOfEveryRebuild) {
  Rng rng(4);
  RouterHarness h(RandomConnected(30, 5, rng), 0.08, 1e-3);
  for (const std::uint32_t publisher : {0U, 7U, 19U}) {
    const TopicId topic = h.subscriptions.AddTopic(NodeId(publisher));
    for (std::uint32_t s = 1; s < 30; s += 3) {
      h.subscriptions.AddSubscription(topic, NodeId((publisher + s) % 30),
                                      SimDuration::Millis(120));
    }
  }
  DcrdRouter router(h.Context());
  SolveStats expected;
  for (int epoch = 0; epoch < 3; ++epoch) {
    if (epoch > 0) {
      h.monitor.MeasureAt(SimTime::Zero() + SimDuration::Seconds(300 * epoch));
    }
    router.Rebuild(h.monitor.view());
    for (std::size_t t = 0; t < h.subscriptions.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      for (const Subscription& sub : h.subscriptions.subscriptions(topic)) {
        const DestinationTables& tables =
            router.TablesFor(topic, sub.subscriber);
        ++expected.solves;
        expected.sweeps += static_cast<std::uint64_t>(tables.sweeps_used);
        if (!tables.converged) ++expected.unconverged;
      }
    }
    EXPECT_EQ(router.solve_stats().solves, expected.solves) << epoch;
    EXPECT_EQ(router.solve_stats().sweeps, expected.sweeps) << epoch;
    EXPECT_EQ(router.solve_stats().unconverged, expected.unconverged)
        << epoch;
  }
  EXPECT_EQ(expected.solves, 3U * 3U * 10U);
  // The lossy, failure-prone overlay drives some solves into the sweep
  // cap, so the unconverged count is exercised too.
  EXPECT_GT(expected.unconverged, 0U);
}

// Empty when two destinations' tables agree bit for bit: convergence
// bookkeeping, every <d,r> (memcmp) and every primary and fallback list.
std::string TablesDiff(const DestinationTables& a, const DestinationTables& b) {
  if (a.subscriber != b.subscriber || a.sweeps_used != b.sweeps_used ||
      a.converged != b.converged || a.reused != b.reused ||
      std::memcmp(&a.deadline_us, &b.deadline_us, sizeof(double)) != 0) {
    return "bookkeeping";
  }
  if (a.per_node.size() != b.per_node.size()) return "node count";
  const auto same_list = [](std::span<const Neighbor> x,
                            std::span<const Neighbor> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const Neighbor& p, const Neighbor& q) {
                        return p.peer == q.peer && p.link == q.link;
                      });
  };
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    const NodeTables x = a.per_node[i];
    const NodeTables y = b.per_node[i];
    if (std::memcmp(&x.dr, &y.dr, sizeof(DR)) != 0 ||
        !same_list(x.primary, y.primary) ||
        !same_list(x.fallback, y.fallback)) {
      return "node " + std::to_string(i);
    }
  }
  return "";
}

TEST(DcrdRouterEpochTest, FanOutRebuildMatchesInlineRebuild) {
  // The same scenario twice: one router rebuilds on this plain thread,
  // where the epoch fans out over every core, the other inside a pooled
  // worker of a fan-out, where it runs inline. Every table must agree.
  const auto overlay = [] {
    Rng rng(6);
    return RandomConnected(40, 5, rng);
  };
  for (const OrderingPolicy ordering :
       {OrderingPolicy::kTheorem1, OrderingPolicy::kReliabilityFirst}) {
    for (const int m : {1, 2}) {
      RouterHarness fan(overlay(), 0.08, 1e-3);
      RouterHarness inline_run(overlay(), 0.08, 1e-3);
      for (RouterHarness* h : {&fan, &inline_run}) {
        for (const std::uint32_t publisher : {0U, 13U, 27U}) {
          const TopicId topic = h->subscriptions.AddTopic(NodeId(publisher));
          for (std::uint32_t s = 1; s < 40; s += 2) {
            h->subscriptions.AddSubscription(
                topic, NodeId((publisher + s) % 40),
                SimDuration::Millis(60 + 10 * (s % 5)));
          }
        }
      }
      DcrdConfig config;
      config.computation.ordering = ordering;
      DcrdRouter fanned(fan.Context(m), config);
      DcrdRouter inlined(inline_run.Context(m), config);
      for (int epoch = 0; epoch < 2; ++epoch) {
        const SimTime at =
            SimTime::Zero() + SimDuration::Seconds(300 * epoch);
        fan.monitor.MeasureAt(at);
        inline_run.monitor.MeasureAt(at);
        fanned.Rebuild(fan.monitor.view());
        std::size_t nested_workers = 0;
        ParallelFor(2, 2, [&](std::size_t i, std::size_t) {
          if (i != 0) return;
          nested_workers = ParallelWorkers(40, HardwareThreads());
          inlined.Rebuild(inline_run.monitor.view());
        });
        ASSERT_EQ(nested_workers, 1U);
        const SubscriptionTable& subs = fan.subscriptions;
        for (std::size_t t = 0; t < subs.topic_count(); ++t) {
          const TopicId topic(static_cast<TopicId::underlying_type>(t));
          for (const Subscription& sub : subs.subscriptions(topic)) {
            EXPECT_EQ(TablesDiff(fanned.TablesFor(topic, sub.subscriber),
                                 inlined.TablesFor(topic, sub.subscriber)),
                      "")
                << "ordering " << static_cast<int>(ordering) << " m " << m
                << " epoch " << epoch << " topic " << t << " subscriber "
                << sub.subscriber;
          }
        }
        EXPECT_EQ(fanned.solve_stats().sweeps, inlined.solve_stats().sweeps);
        EXPECT_EQ(fanned.solve_stats().unconverged,
                  inlined.solve_stats().unconverged);
      }
    }
  }
}

}  // namespace
}  // namespace dcrd
