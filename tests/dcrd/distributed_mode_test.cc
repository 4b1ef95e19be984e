// DcrdRouter running its control plane for real
// (DcrdConfig::use_distributed_computation).
#include <gtest/gtest.h>

#include "dcrd/dcrd_router.h"
#include "graph/topology.h"
#include "routing/test_harness.h"
#include "sim/engine.h"

namespace dcrd {
namespace {

using testing::RouterHarness;

TEST(DistributedModeTest, DeliversAfterConvergenceWindow) {
  RouterHarness h(Line(4, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(200));
  DcrdConfig config;
  config.use_distributed_computation = true;
  DcrdRouter router(h.Context(), config);
  router.Rebuild(h.monitor.view());
  // Let the gossip converge (3 hops x 10 ms and change).
  h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Millis(200));

  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(3)));
  EXPECT_EQ(h.sink.ArrivalOf(message.id, NodeId(3)),
            SimTime::FromMicros(200'000) + SimDuration::Millis(30));
  EXPECT_GT(h.network.counters(TrafficClass::kControl).attempted, 0U);
}

TEST(DistributedModeTest, PublishBeforeConvergenceIsDropped) {
  // Publishing at t=0, the instant Rebuild injected <0,1> at the
  // subscriber, the publisher has heard nothing yet: the packet has
  // nowhere to go. This is the honest cost of a real control plane.
  RouterHarness h(Line(4, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(3), SimDuration::Millis(200));
  DcrdConfig config;
  config.use_distributed_computation = true;
  DcrdRouter router(h.Context(), config);
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_FALSE(h.sink.Delivered(message.id, NodeId(3)));
  EXPECT_EQ(router.dropped_undeliverable(), 1U);
}

TEST(DistributedModeTest, EndToEndMatchesCentralizedShape) {
  // Whole-system: distributed mode under failures must deliver essentially
  // like solver mode (publish phases start well after the ~100 ms
  // convergence window) while emitting control traffic.
  ScenarioConfig central;
  central.router = RouterKind::kDcrd;
  central.node_count = 15;
  central.degree = 5;
  central.topic_count = 4;
  central.failure_probability = 0.06;
  central.sim_time = SimDuration::Seconds(60);
  central.seed = 3;
  ScenarioConfig distributed = central;
  distributed.dcrd_distributed = true;

  const RunSummary central_summary = RunScenario(central);
  const RunSummary distributed_summary = RunScenario(distributed);
  EXPECT_EQ(central_summary.control_transmissions, 0U);
  EXPECT_GT(distributed_summary.control_transmissions, 1000U);
  EXPECT_GT(distributed_summary.delivery_ratio(), 0.98);
  EXPECT_NEAR(distributed_summary.qos_ratio(), central_summary.qos_ratio(),
              0.03);
}

TEST(DistributedModeTest, DeterministicAcrossRuns) {
  ScenarioConfig config;
  config.router = RouterKind::kDcrd;
  config.dcrd_distributed = true;
  config.node_count = 12;
  config.degree = 4;
  config.topic_count = 3;
  config.failure_probability = 0.05;
  config.sim_time = SimDuration::Seconds(30);
  config.seed = 8;
  const RunSummary a = RunScenario(config);
  const RunSummary b = RunScenario(config);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
}

TEST(DistributedModeTest, EpochTurnoverRetiresOldGossip) {
  // Two rebuilds in quick succession: stragglers from the first epoch's
  // protocols must not corrupt the second (no crash, state consistent,
  // message still deliverable afterwards).
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(200));
  DcrdConfig config;
  config.use_distributed_computation = true;
  DcrdRouter router(h.Context(), config);
  router.Rebuild(h.monitor.view());
  // Mid-convergence rebuild: first epoch's updates still in flight.
  h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Millis(5));
  router.Rebuild(h.monitor.view());
  h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Millis(200));
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
}

TEST(DistributedModeTest, SolverTableAccessorGuarded) {
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(200));
  DcrdConfig config;
  config.use_distributed_computation = true;
  DcrdRouter router(h.Context(), config);
  router.Rebuild(h.monitor.view());
  EXPECT_DEATH((void)router.TablesFor(topic, NodeId(2)),
               "not materialised in distributed mode");
}

TEST(DistributedModeTest, RejectsOrderingsOtherThanTheorem1) {
  // The gossip runs the paper's Theorem-1 recursion only. Under another
  // ordering a node can list a farther neighbour first and count to
  // infinity, and the gossip has no sweep cap to stop it.
  for (const OrderingPolicy ordering :
       {OrderingPolicy::kDelayFirst, OrderingPolicy::kReliabilityFirst}) {
    RouterHarness h(Line(4, SimDuration::Millis(10)), 0.0, 0.0);
    DcrdConfig config;
    config.use_distributed_computation = true;
    config.computation.ordering = ordering;
    EXPECT_DEATH({ DcrdRouter router(h.Context(), config); },
                 "distributed mode needs the Theorem-1 ordering");
  }
}

}  // namespace
}  // namespace dcrd
