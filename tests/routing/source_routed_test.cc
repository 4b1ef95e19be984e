// SourceRoutedRouter internals reachable only through contrived timing: a
// message's routes live in its record exactly as long as some copy of the
// message can still land, however slow the copy or however many messages
// follow it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/topology.h"
#include "routing/multipath_router.h"
#include "routing/tree_router.h"
#include "test_harness.h"

namespace dcrd {
namespace {

using testing::RouterHarness;

TEST(SourceRoutedTest, SlowCopyKeepsItsRoutes) {
  // 130 s links: the first message's copy is still on its first link when
  // the second message is published 125 s later, and its record carries
  // its route to the end however long the journey takes.
  Graph graph(3);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Seconds(130));
  graph.AddEdge(NodeId(1), NodeId(2), SimDuration::Seconds(130));
  RouterHarness h(std::move(graph), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Seconds(600));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());

  const Message first = h.PublishVia(router, topic);
  // Before the first packet reaches broker 1.
  h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Seconds(125));
  const Message second = h.PublishVia(router, topic);
  EXPECT_EQ(router.message_records(), 2U);
  h.scheduler.Run();

  EXPECT_TRUE(h.sink.Delivered(first.id, NodeId(2)));
  EXPECT_TRUE(h.sink.Delivered(second.id, NodeId(2)));
  EXPECT_EQ(router.message_records(), 0U);
}

TEST(SourceRoutedTest, RecordGoesWithTheLastCopy) {
  // Fast links: the first message's record is gone once its last copy is
  // retired, long before the second message is published.
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());
  const Message first = h.PublishVia(router, topic);
  EXPECT_EQ(router.message_records(), 1U);
  h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Seconds(60));
  EXPECT_TRUE(h.sink.Delivered(first.id, NodeId(2)));
  EXPECT_EQ(router.message_records(), 0U);
  EXPECT_EQ(router.transport_stats().copy_records, 0U);

  const Message second = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(second.id, NodeId(2)));
  EXPECT_EQ(router.message_records(), 0U);
}

TEST(SourceRoutedTest, RecordsDrainUnderCrashesAndPeerDeath) {
  // Broker crashes, peer-death detection, link failures and loss together,
  // with the crash hooks and rebuilds driven the way the engine drives
  // them: copies are acknowledged, given up, failed fast and killed by
  // their sender's crash, and once the scheduler drains no message record
  // and no copy record is left.
  for (const bool multipath : {false, true}) {
    Rng rng(11);
    RouterHarness h(RandomConnected(12, 4, rng), 0.1, 0.05, /*seed=*/5);
    OverlayNetwork network(
        h.graph, h.scheduler, FailureSchedule(5, 0.1),
        OverlayNetworkConfig{/*loss_rate=*/0.05}, Rng(5),
        NodeFailureSchedule(), GrayFailureSchedule(),
        BrokerCrashSchedule(5, SimDuration::Seconds(10),
                            SimDuration::Seconds(2)));
    const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
    for (std::uint32_t v = 1; v < 12; v += 2) {
      h.subscriptions.AddSubscription(topic, NodeId(v),
                                      SimDuration::Millis(200));
    }
    RouterContext context = h.Context(/*m=*/2);
    context.network = &network;
    context.peer_death = true;
    const std::unique_ptr<Router> router =
        multipath ? std::unique_ptr<Router>(
                        std::make_unique<MultipathRouter>(context))
                  : std::make_unique<TreeRouter>(context,
                                                 TreeKind::kShortestHop);
    SCOPED_TRACE(router->name());
    router->Rebuild(h.monitor.view());

    const BrokerCrashSchedule& crashes = network.crashes();
    std::vector<bool> up(h.graph.node_count());
    for (std::size_t i = 0; i < up.size(); ++i) {
      up[i] =
          crashes.Up(NodeId(static_cast<std::uint32_t>(i)), SimTime::Zero());
    }
    int crash_hooks = 0;
    std::size_t most_records = 0;
    // 20 s at 20 publishes per second; crash hooks every second, a rebuild
    // every 5 s.
    for (int step = 1; step <= 400; ++step) {
      const SimTime now = SimTime::FromMicros(step * 50'000LL);
      h.scheduler.RunUntil(now);
      most_records = std::max(most_records, router->message_records());
      if (step % 20 == 0) {
        for (std::size_t i = 0; i < up.size(); ++i) {
          const NodeId node(static_cast<std::uint32_t>(i));
          if (crashes.Up(node, now) == up[i]) continue;
          up[i] = !up[i];
          if (up[i]) {
            router->OnBrokerRestart(node);
          } else {
            router->OnBrokerCrash(node);
            ++crash_hooks;
          }
        }
      }
      if (step % 100 == 0) router->Rebuild(h.monitor.view());
      if (crashes.Up(NodeId(0), now)) h.PublishVia(*router, topic);
    }
    h.scheduler.Run();
    EXPECT_GT(crash_hooks, 0);
    EXPECT_GT(router->transport_stats().crash_copies_killed, 0U);
    EXPECT_GT(router->transport_stats().peer_deaths, 0U);
    EXPECT_GT(h.sink.deliveries().size(), 0U);
    EXPECT_GT(most_records, 0U);
    EXPECT_TRUE(h.scheduler.empty());
    EXPECT_EQ(router->message_records(), 0U);
    EXPECT_EQ(router->transport_stats().copy_records, 0U);
    EXPECT_EQ(router->transport_stats().pending_copies, 0U);
  }
}

TEST(SourceRoutedDeathTest, DuplicateMessageIdRejected) {
  RouterHarness h(Line(2, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());
  Message message;
  message.id = MessageId(42);
  message.topic = topic;
  message.publisher = NodeId(0);
  message.publish_time = h.scheduler.now();
  router.Publish(message);
  // The first message's copy is still in flight, so its record is live.
  EXPECT_DEATH(router.Publish(message), "duplicate message id");
}

}  // namespace
}  // namespace dcrd
