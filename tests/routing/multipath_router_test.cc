#include "routing/multipath_router.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/topology.h"
#include "test_harness.h"

namespace dcrd {
namespace {

using testing::RouterHarness;

// Two fully disjoint routes 0->3 plus a slow direct edge.
Graph TwoRoutes() {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(2));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(2));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(3));
  graph.AddEdge(NodeId(0), NodeId(3), SimDuration::Millis(30));
  return graph;
}

TEST(MultipathRouterTest, PicksDisjointSecondary) {
  RouterHarness h(TwoRoutes(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  const auto& paths = router.PathsFor(topic, NodeId(3));
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_EQ(paths[0],
            (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(3)}));
  // Both the 0-2-3 route and the direct edge are link-disjoint from the
  // primary; Yen order prefers the faster 0-2-3.
  EXPECT_EQ(paths[1],
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(3)}));
}

TEST(MultipathRouterTest, SendsDuplicateCopies) {
  RouterHarness h(TwoRoutes(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(3)));
  // Primary 2 hops + secondary 2 hops.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 4U);
  // First arrival wins: via the primary at 3 ms.
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(3)),
            SimTime::Zero() + SimDuration::Millis(3));
  // The duplicate is reported too (metrics dedupe, the sink records both).
  EXPECT_EQ(h.sink.CountFor(message.id), 2U);
}

TEST(MultipathRouterTest, NoReroutingUnderTotalFailure) {
  RouterHarness h(TwoRoutes(), 1.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_FALSE(h.sink.Delivered(message.id, NodeId(3)));
  // Both first hops tried once (m=1), then given up — no exploration.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 2U);
}

TEST(MultipathRouterTest, SingleRouteWhenGraphHasOnePath) {
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  const auto& paths = router.PathsFor(topic, NodeId(2));
  ASSERT_EQ(paths.size(), 1U);
  EXPECT_EQ(paths[0].size(), 3U);

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 2U);
}

TEST(MultipathRouterTest, PathsComeFromYenTopFiveByDelay) {
  Rng rng(12);
  RouterHarness h(RandomConnected(10, 4, rng), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(9), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  const auto& paths = router.PathsFor(topic, NodeId(9));
  const auto top5 = YenKShortestPaths(h.graph, NodeId(0), NodeId(9), 5);
  ASSERT_GE(top5.size(), 2U);
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_EQ(paths[0], top5[0].nodes);
  bool secondary_in_top5 = false;
  for (std::size_t i = 1; i < top5.size(); ++i) {
    secondary_in_top5 |= top5[i].nodes == paths[1];
  }
  EXPECT_TRUE(secondary_in_top5);
}

TEST(MultipathRouterTest, ThreePathSelectionStaysDistinct) {
  Rng rng(21);
  RouterHarness h(RandomConnected(12, 5, rng), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(11),
                                  SimDuration::Millis(500));
  MultipathRouter router(h.Context(), /*path_count=*/3);
  router.Rebuild(h.monitor.view());

  const auto& paths = router.PathsFor(topic, NodeId(11));
  ASSERT_EQ(paths.size(), 3U);
  EXPECT_NE(paths[0], paths[1]);
  EXPECT_NE(paths[0], paths[2]);
  EXPECT_NE(paths[1], paths[2]);
}

TEST(MultipathRouterTest, MorePathsMoreTrafficMoreResilience) {
  // Same overlay and failure schedule; path_count 1 vs 3. Traffic rises
  // with the count and delivery never falls.
  Rng rng(33);
  const Graph base_graph = RandomConnected(12, 5, rng);
  std::uint64_t k1_data = 0, k3_data = 0;
  std::size_t k1_delivered = 0, k3_delivered = 0;
  for (const std::size_t k : {1U, 3U}) {
    Graph copy = base_graph;
    RouterHarness h(std::move(copy), 0.10, 0.0, /*seed=*/7);
    const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
    for (std::uint32_t v = 2; v < 12; v += 3) {
      h.subscriptions.AddSubscription(topic, NodeId(v),
                                      SimDuration::Millis(400));
    }
    MultipathRouter router(h.Context(), k);
    router.Rebuild(h.monitor.view());
    for (int i = 0; i < 40; ++i) {
      h.PublishVia(router, topic);
      h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Seconds(1));
    }
    h.scheduler.Run();
    (k == 1 ? k1_data : k3_data) =
        h.network.counters(TrafficClass::kData).attempted;
    std::size_t delivered = 0;
    for (std::uint64_t id = 0; id < 40; ++id) {
      for (std::uint32_t v = 2; v < 12; v += 3) {
        delivered += h.sink.Delivered(MessageId(id), NodeId(v)) ? 1 : 0;
      }
    }
    (k == 1 ? k1_delivered : k3_delivered) = delivered;
  }
  EXPECT_GT(k3_data, 2 * k1_data);
  EXPECT_GE(k3_delivered, k1_delivered);
}

TEST(MultipathRouterTest, MidEpochJoinerSkippedUntilRebuild) {
  // A subscriber added after the last rebuild has no path set yet: the
  // router must skip it gracefully (no crash, no delivery) and pick it up
  // at the next rebuild.
  RouterHarness h(TwoRoutes(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());

  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(500));
  const Message before = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(before.id, NodeId(3)));
  EXPECT_FALSE(h.sink.Delivered(before.id, NodeId(1)));

  router.Rebuild(h.monitor.view());
  const Message after = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(after.id, NodeId(1)));
}

TEST(MultipathRouterTest, PathSetsFollowTheEstimatesAcrossRebuilds) {
  // A later measurement of the same true delays keeps every path set; one
  // changed estimate replans them, and so does changing it back.
  RouterHarness h(TwoRoutes(), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(500));
  MultipathRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  using Paths = std::vector<std::vector<NodeId>>;
  const Paths measured = router.PathsFor(topic, NodeId(3));
  EXPECT_EQ(measured,
            (Paths{{NodeId(0), NodeId(1), NodeId(3)},
                   {NodeId(0), NodeId(2), NodeId(3)}}));

  h.monitor.MeasureAt(SimTime::Zero() + SimDuration::Seconds(300));
  router.Rebuild(h.monitor.view());
  EXPECT_EQ(router.PathsFor(topic, NodeId(3)), measured);

  // The direct 0-3 edge (link 4) now looks the fastest.
  std::vector<SimDuration> alpha;
  std::vector<double> gamma;
  for (std::size_t i = 0; i < h.graph.edge_count(); ++i) {
    const LinkId link(static_cast<LinkId::underlying_type>(i));
    alpha.push_back(h.monitor.view().alpha(link));
    gamma.push_back(h.monitor.view().gamma(link));
  }
  alpha[4] = SimDuration::Millis(1);
  const MonitoredView faster_direct(alpha, gamma);
  router.Rebuild(faster_direct);
  EXPECT_EQ(router.PathsFor(topic, NodeId(3)),
            (Paths{{NodeId(0), NodeId(3)},
                   {NodeId(0), NodeId(1), NodeId(3)}}));

  router.Rebuild(h.monitor.view());
  EXPECT_EQ(router.PathsFor(topic, NodeId(3)), measured);
}

}  // namespace
}  // namespace dcrd
