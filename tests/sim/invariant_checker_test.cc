#include "sim/invariant_checker.h"

#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "graph/topology.h"
#include "sim/metrics.h"

namespace dcrd {
namespace {

struct FakeRouter final : public Router {
  void Rebuild(const MonitoredView&) override {}
  void Publish(const Message&) override {}
  [[nodiscard]] std::string_view name() const override { return "Fake"; }
  TransportStats stats;
  std::size_t episodes = 0;
  [[nodiscard]] TransportStats transport_stats() const override {
    return stats;
  }
  [[nodiscard]] std::size_t open_episodes() const override {
    return episodes;
  }
  std::size_t records = 0;
  [[nodiscard]] std::size_t message_records() const override {
    return records;
  }
};

Message TestMessage(std::uint64_t id = 1) {
  Message message;
  message.id = MessageId(id);
  message.topic = TopicId(0);
  message.publisher = NodeId(0);
  message.publish_time = SimTime::Zero();
  return message;
}

struct Fixture {
  Graph graph = Line(3, SimDuration::Millis(10));
  Scheduler scheduler;
  FailureSchedule failures{1, 0.0};
  OverlayNetwork network{graph, scheduler, failures, 0.0, Rng(1)};
  SubscriptionTable subscriptions;
  MetricsCollector metrics{subscriptions};

  Fixture() {
    subscriptions.AddTopic(NodeId(0));
    subscriptions.AddSubscription(TopicId(0), NodeId(2),
                                  SimDuration::Millis(100));
  }
};

TEST(InvariantCheckerTest, CleanArrivalsRaiseNoViolation) {
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  checker.OnCopyArrival(1, NodeId(1), NodeId(0), packet, /*handed_up=*/true);
  packet.RecordOnPath(NodeId(1));
  checker.OnCopyArrival(2, NodeId(2), NodeId(1), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.violation_count(), 0U);
  EXPECT_EQ(checker.copies_observed(), 2U);
}

TEST(InvariantCheckerTest, LegalUpstreamRerouteIsNotALoop) {
  // Path [0, 1]: node 1 sends back up to node 0 — Algorithm 2's upstream
  // reroute. 0 is on the path but is 1's original upstream: legal.
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(1));
  checker.OnCopyArrival(1, NodeId(0), NodeId(1), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.violation_count(), 0U);
}

TEST(InvariantCheckerTest, RevisitingNonUpstreamNodeIsALoop) {
  // Path [0, 1, 2]: 2 sending to 0 revisits a path node that is NOT its
  // upstream (2's upstream is 1) — a forwarding loop.
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(1));
  packet.RecordOnPath(NodeId(2));
  checker.OnCopyArrival(1, NodeId(0), NodeId(2), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.violation_count(), 1U);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_NE(checker.violations()[0].find("routing loop"), std::string::npos);
}

TEST(InvariantCheckerTest, DoubleHandUpOfOneCopyIsAViolation) {
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  checker.OnCopyArrival(9, NodeId(1), NodeId(0), packet, /*handed_up=*/true);
  // Duplicate arrival correctly suppressed by the transport: fine.
  checker.OnCopyArrival(9, NodeId(1), NodeId(0), packet, /*handed_up=*/false);
  EXPECT_EQ(checker.violation_count(), 0U);
  // The same copy handed up a second time (e.g. dedup state lost): caught.
  checker.OnCopyArrival(9, NodeId(1), NodeId(0), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.violation_count(), 1U);
  EXPECT_NE(checker.violations()[0].find("twice"), std::string::npos);
}

// Three instants around a crash of `node`: up at t0, down in the next
// epoch, up again at t1 and through that epoch to t2. The first such
// window among the schedule's epoch starts from zero.
struct CrashWindow {
  SimTime t0, t1, t2;
};

std::optional<CrashWindow> FindCrashWindow(const BrokerCrashSchedule& crashes,
                                           NodeId node) {
  const SimDuration epoch = crashes.epoch();
  const auto start = [&](int e) { return SimTime::Zero() + epoch * e; };
  for (int e = 0; e < 10'000; ++e) {
    if (!crashes.Up(node, start(e)) || crashes.Up(node, start(e + 1))) {
      continue;
    }
    for (int r = e + 2; r < e + 1'000; ++r) {
      if (!crashes.Up(node, start(r))) continue;
      return CrashWindow{start(e), start(r),
                         start(r) + SimDuration::Micros(epoch.micros() / 2)};
    }
  }
  return std::nullopt;
}

TEST(InvariantCheckerTest, CrashExcusesARepeatHandUpAtTheSameNodeOnly) {
  Graph graph = Line(3, SimDuration::Millis(10));
  Scheduler scheduler;
  const BrokerCrashSchedule crashes(7, SimDuration::Seconds(30),
                                    SimDuration::Seconds(5));
  OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0),
                         OverlayNetworkConfig{}, Rng(1),
                         NodeFailureSchedule(), GrayFailureSchedule(),
                         crashes);
  SubscriptionTable subscriptions;
  subscriptions.AddTopic(NodeId(0));
  subscriptions.AddSubscription(TopicId(0), NodeId(2),
                                SimDuration::Millis(100));
  MetricsCollector metrics(subscriptions);
  SimInvariantChecker checker(network, subscriptions, metrics);
  const NodeId crashed(1);
  const auto window = FindCrashWindow(crashes, crashed);
  ASSERT_TRUE(window.has_value());
  ASSERT_TRUE(crashes.DownDuring(crashed, window->t0, window->t1));
  ASSERT_FALSE(crashes.DownDuring(crashed, window->t1, window->t2));

  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  scheduler.RunUntil(window->t0);
  checker.OnCopyArrival(5, crashed, NodeId(0), packet, /*handed_up=*/true);
  checker.OnCopyArrival(6, crashed, NodeId(0), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.violation_count(), 0U);

  // Copy 5 again at the broker that crashed in between: its dedup window
  // died with the crash, so the repeat is excused.
  scheduler.RunUntil(window->t1);
  checker.OnCopyArrival(5, crashed, NodeId(0), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.crash_excused_duplicates(), 1U);
  EXPECT_EQ(checker.violation_count(), 0U);

  // Copy 6 again at another broker: that crash explains nothing there.
  checker.OnCopyArrival(6, NodeId(2), crashed, packet, /*handed_up=*/true);
  EXPECT_EQ(checker.crash_excused_duplicates(), 1U);
  EXPECT_EQ(checker.violation_count(), 1U);

  // A third hand-up of copy 5 is judged against the second one (t1), not
  // the first: the broker stayed up since t1, so this is a violation.
  scheduler.RunUntil(window->t2);
  checker.OnCopyArrival(5, crashed, NodeId(0), packet, /*handed_up=*/true);
  EXPECT_EQ(checker.crash_excused_duplicates(), 1U);
  EXPECT_EQ(checker.violation_count(), 2U);
  ASSERT_EQ(checker.violations().size(), 2U);
  for (const std::string& violation : checker.violations()) {
    EXPECT_NE(violation.find("handed up twice"), std::string::npos);
  }
}

TEST(InvariantCheckerTest, ConservationHoldsAfterRealTraffic) {
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  const LinkId link = *f.graph.FindEdge(NodeId(0), NodeId(1));
  for (int i = 0; i < 5; ++i) {
    f.network.Transmit(NodeId(0), link, TrafficClass::kData, [] {});
  }
  f.scheduler.Run();
  checker.CheckEpoch();
  EXPECT_EQ(checker.violation_count(), 0U);
}

TEST(InvariantCheckerTest, PendingCopiesAfterDrainAreAViolation) {
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  FakeRouter router;
  router.stats.pending_copies = 3;
  router.episodes = 2;
  checker.CheckEndOfRun(router, SimTime::Zero());
  EXPECT_EQ(checker.violation_count(), 2U);  // pending copies + episodes
}

TEST(InvariantCheckerTest, LiveRecordsAfterDrainAreAViolation) {
  // A copy record or message record that outlives every packet is a leak.
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  FakeRouter router;
  router.stats.copy_records = 1;
  router.records = 4;
  checker.CheckEndOfRun(router, SimTime::Zero());
  ASSERT_EQ(checker.violation_count(), 2U);
  EXPECT_NE(checker.violations()[0].find("1 transport copy records"),
            std::string::npos);
  EXPECT_NE(checker.violations()[1].find("4 message records"),
            std::string::npos);
}

TEST(InvariantCheckerTest, GuaranteeViolationWhenCleanPathIgnored) {
  // Published, never delivered, no failures anywhere: with the guarantee
  // check on this must be flagged.
  Fixture f;
  InvariantCheckerConfig config;
  config.check_delivery_guarantee = true;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics, config);
  checker.OnPublished(TestMessage());
  FakeRouter router;
  checker.CheckEndOfRun(router, SimTime::Zero() + SimDuration::Seconds(60));
  EXPECT_EQ(checker.violation_count(), 1U);
  EXPECT_NE(checker.violations()[0].find("delivery guarantee"),
            std::string::npos);
}

TEST(InvariantCheckerTest, GuaranteeSatisfiedByDelivery) {
  Fixture f;
  InvariantCheckerConfig config;
  config.check_delivery_guarantee = true;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics, config);
  const Message message = TestMessage();
  checker.OnPublished(message);
  checker.OnDelivered(message, NodeId(2),
                      SimTime::Zero() + SimDuration::Millis(20));
  FakeRouter router;
  checker.CheckEndOfRun(router, SimTime::Zero() + SimDuration::Seconds(60));
  EXPECT_EQ(checker.violation_count(), 0U);
}

TEST(InvariantCheckerTest, NoGuaranteeViolationWhenPathNeverClean) {
  // All links down for the whole run: non-delivery is legitimate.
  Graph graph = Line(3, SimDuration::Millis(10));
  Scheduler scheduler;
  FailureSchedule failures(1, 1.0);  // always down
  OverlayNetwork network(graph, scheduler, failures, 0.0, Rng(1));
  SubscriptionTable subscriptions;
  subscriptions.AddTopic(NodeId(0));
  subscriptions.AddSubscription(TopicId(0), NodeId(2),
                                SimDuration::Millis(100));
  MetricsCollector metrics(subscriptions);
  InvariantCheckerConfig config;
  config.check_delivery_guarantee = true;
  SimInvariantChecker checker(network, subscriptions, metrics, config);
  checker.OnPublished(TestMessage());
  FakeRouter router;
  checker.CheckEndOfRun(router, SimTime::Zero() + SimDuration::Seconds(60));
  EXPECT_EQ(checker.violation_count(), 0U);
}

// A node-failure schedule whose first epoch (10 s, so it spans the whole
// 5 s guarantee window) has exactly `down` of nodes 0..3 down: the first
// seed that draws that set.
std::optional<NodeFailureSchedule> DownThroughWindow(
    const std::set<NodeId>& down) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const NodeFailureSchedule schedule(seed, 0.5, SimDuration::Seconds(10));
    bool match = true;
    for (NodeId::underlying_type v = 0; v < 4; ++v) {
      match = match && schedule.IsUp(NodeId(v), SimTime::Zero()) !=
                           down.contains(NodeId(v));
    }
    if (match) return schedule;
  }
  return std::nullopt;
}

TEST(InvariantCheckerTest, GuaranteeNeedsACleanRelay) {
  // Diamond: publisher 0 reaches subscriber 3 through relay 1 or relay 2.
  // With relay 1 down for the whole window the path through relay 2 is
  // still clean, so a never-delivered pair is a violation; with both
  // relays down no clean path exists.
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(10));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(10));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(10));
  SubscriptionTable subscriptions;
  subscriptions.AddTopic(NodeId(0));
  subscriptions.AddSubscription(TopicId(0), NodeId(3),
                                SimDuration::Millis(100));
  MetricsCollector metrics(subscriptions);
  InvariantCheckerConfig config;
  config.check_delivery_guarantee = true;
  const std::pair<std::set<NodeId>, std::size_t> cases[] = {
      {{NodeId(1)}, 1U}, {{NodeId(1), NodeId(2)}, 0U}};
  for (const auto& [down, violations] : cases) {
    const auto node_failures = DownThroughWindow(down);
    ASSERT_TRUE(node_failures.has_value());
    Scheduler scheduler;
    OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0),
                           OverlayNetworkConfig{}, Rng(1), *node_failures);
    SimInvariantChecker checker(network, subscriptions, metrics, config);
    checker.OnPublished(TestMessage());
    FakeRouter router;
    checker.CheckEndOfRun(router, SimTime::Zero() + SimDuration::Seconds(60));
    EXPECT_EQ(checker.violation_count(), violations)
        << down.size() << " relay(s) down";
  }
}

TEST(InvariantCheckerTest, DeliveriesForwardToWrappedSink) {
  Fixture f;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics);
  const Message message = TestMessage();
  f.metrics.OnPublished(message);
  checker.OnPublished(message);
  checker.OnDelivered(message, NodeId(2),
                      SimTime::Zero() + SimDuration::Millis(15));
  const RunSummary summary = f.metrics.Summarize(0, 0);
  EXPECT_EQ(summary.delivered_pairs, 1U);
}

TEST(InvariantCheckerTest, RecordingStopsAtMaxButCountContinues) {
  Fixture f;
  InvariantCheckerConfig config;
  config.max_recorded = 2;
  SimInvariantChecker checker(f.network, f.subscriptions, f.metrics, config);
  Packet packet(TestMessage(), {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  for (std::uint64_t copy = 1; copy <= 5; ++copy) {
    checker.OnCopyArrival(7, NodeId(1), NodeId(0), packet, /*handed_up=*/true);
  }
  // First call is legitimate; the four repeats are double hand-ups.
  EXPECT_EQ(checker.violation_count(), 4U);
  EXPECT_EQ(checker.violations().size(), 2U);
}

}  // namespace
}  // namespace dcrd
