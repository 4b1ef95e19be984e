#include "routing/tree_router.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/topology.h"
#include "test_harness.h"

namespace dcrd {
namespace {

using testing::RouterHarness;

// Diamond with a slow direct edge: hop-optimal and delay-optimal routes to
// node 1 differ.
Graph Diamond() {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(2), NodeId(1), SimDuration::Millis(2));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(1));
  return graph;
}

// `graph`'s true delays, except the 0-2 edge measured at 100 ms.
MonitoredView InflatedZeroTwoView(const Graph& graph) {
  std::vector<SimDuration> alphas;
  std::vector<double> gammas;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    alphas.push_back(
        graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay);
    gammas.push_back(1.0);
  }
  alphas[graph.FindEdge(NodeId(0), NodeId(2))->underlying()] =
      SimDuration::Millis(100);
  return MonitoredView(alphas, gammas);
}

TEST(TreeRouterTest, DTreeDeliversAlongShortestDelayPath) {
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(1)));
  // Via node 2: 1 ms + 2 ms.
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(1)),
            SimTime::Zero() + SimDuration::Millis(3));
}

TEST(TreeRouterTest, RTreeDeliversAlongFewestHops) {
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  TreeRouter router(h.Context(), TreeKind::kShortestHop);
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  // Direct link: 10 ms.
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(1)),
            SimTime::Zero() + SimDuration::Millis(10));
}

TEST(TreeRouterTest, SharesCopiesOnCommonPrefix) {
  // Line 0-1-2-3 with subscribers at 2 and 3: one copy leaves node 0.
  RouterHarness h(Line(4, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(3)));
  // 0->1, 1->2 shared; 2->3 single: 3 data transmissions total.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 3U);
}

TEST(TreeRouterTest, NoRerouteOnFailure) {
  // All links permanently failed: the tree gives up after m transmissions.
  RouterHarness h(Line(3, SimDuration::Millis(10)), 1.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  TreeRouter router(h.Context(/*m=*/2), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_FALSE(h.sink.Delivered(message.id, NodeId(2)));
  // Exactly m transmissions on the first hop, then silence.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 2U);
}

TEST(TreeRouterTest, PublisherColocatedSubscriberDeliversImmediately) {
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(0), SimDuration::Millis(10));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(0)));
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(0)), SimTime::Zero());
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 0U);
}

TEST(TreeRouterTest, TreeForExposesSpanningTree) {
  Rng rng(6);
  RouterHarness h(RandomConnected(12, 4, rng), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(5));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(500));
  TreeRouter router(h.Context(), TreeKind::kShortestHop);
  router.Rebuild(h.monitor.view());
  const PathTree& tree = router.TreeFor(topic);
  EXPECT_EQ(tree.source, NodeId(5));
  for (std::size_t v = 0; v < 12; ++v) {
    EXPECT_TRUE(tree.Reachable(NodeId(static_cast<NodeId::underlying_type>(v))));
  }
}

TEST(TreeRouterTest, RebuildTracksMonitoredDelays) {
  // With a monitored view that inflates the 0-2 edge, the D-Tree must
  // switch to the direct edge even though ground truth still favours 0-2.
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  const MonitoredView skewed = InflatedZeroTwoView(h.graph);
  router.Rebuild(skewed);

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  // Direct path taken: ground-truth delay 10 ms.
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(1)),
            SimTime::Zero() + SimDuration::Millis(10));
}

TEST(TreeRouterTest, CopyInFlightAcrossRebuildKeepsItsRoute) {
  // Published on the true view, the copy takes 0->2->1. While it is still
  // on the 0-2 link a rebuild moves the tree to the direct 0-1 edge; the
  // copy keeps the route it was published with and lands at 3 ms.
  RouterHarness h(Diamond(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  TreeRouter router(h.Context(), TreeKind::kShortestDelay);
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);

  h.scheduler.RunUntil(SimTime::Zero() + SimDuration::Micros(500));
  const MonitoredView skewed = InflatedZeroTwoView(h.graph);
  router.Rebuild(skewed);
  ASSERT_EQ(router.TreeFor(topic).parent[1], NodeId(0));
  h.scheduler.Run();
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(1)),
            SimTime::Zero() + SimDuration::Millis(3));
  EXPECT_EQ(router.message_records(), 0U);
}

}  // namespace
}  // namespace dcrd
