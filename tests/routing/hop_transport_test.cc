#include "routing/hop_transport.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "graph/topology.h"
#include "obs/broker_health.h"

namespace dcrd {
namespace {

Message TestMessage() {
  Message message;
  message.id = MessageId(1);
  message.topic = TopicId(0);
  message.publisher = NodeId(0);
  message.publish_time = SimTime::Zero();
  return message;
}

struct Fixture {
  Graph graph = Line(2, SimDuration::Millis(10));
  Scheduler scheduler;
  LinkId link = *graph.FindEdge(NodeId(0), NodeId(1));

  OverlayNetwork MakeNetwork(double pf, double pl, std::uint64_t seed = 1) {
    return OverlayNetwork(graph, scheduler, FailureSchedule(seed, pf), pl,
                          Rng(seed));
  }
  static SimDuration Timeout() { return SimDuration::Millis(21); }
};

TEST(HopTransportTest, DeliversAndAcks) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(0.0, 0.0);
  std::vector<NodeId> arrivals;
  HopTransport transport(network,
                         [&](NodeId at, const Packet&, NodeId from) {
                           arrivals.push_back(at);
                           EXPECT_EQ(from, NodeId(0));
                         });
  bool acked = false;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         1, Fixture::Timeout(),
                         [&](bool ok) { acked = ok; });
  f.scheduler.Run();
  EXPECT_EQ(arrivals, (std::vector<NodeId>{NodeId(1)}));
  EXPECT_TRUE(acked);
  EXPECT_EQ(network.counters(TrafficClass::kData).attempted, 1U);
  EXPECT_EQ(network.counters(TrafficClass::kAck).attempted, 1U);
  EXPECT_EQ(transport.pending_count(), 0U);
}

TEST(HopTransportTest, AckTimingFollowsAckDelayFactor) {
  // Factor 0 (paper model): the ACK returns the instant the data lands.
  {
    Fixture f;
    OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                           Rng(1), /*ack_delay_factor=*/0.0);
    HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
    SimTime ack_time;
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}), 1,
                           Fixture::Timeout(),
                           [&](bool) { ack_time = f.scheduler.now(); });
    f.scheduler.Run();
    EXPECT_EQ(ack_time, SimTime::Zero() + SimDuration::Millis(10));
  }
  // Factor 1 (physical): a full round trip.
  {
    Fixture f;
    OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                           Rng(1), /*ack_delay_factor=*/1.0);
    HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
    SimTime ack_time;
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}), 1,
                           Fixture::Timeout(),
                           [&](bool) { ack_time = f.scheduler.now(); });
    f.scheduler.Run();
    EXPECT_EQ(ack_time, SimTime::Zero() + SimDuration::Millis(20));
  }
}

TEST(HopTransportTest, ReportsFailureAfterTimeout) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(1.0, 0.0);  // link always down
  int arrivals = 0;
  HopTransport transport(network,
                         [&](NodeId, const Packet&, NodeId) { ++arrivals; });
  bool done_value = true;
  SimTime done_time;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         1, Fixture::Timeout(), [&](bool ok) {
                           done_value = ok;
                           done_time = f.scheduler.now();
                         });
  f.scheduler.Run();
  EXPECT_FALSE(done_value);
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(done_time, SimTime::Zero() + Fixture::Timeout());
}

TEST(HopTransportTest, RetransmitsUpToM) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(1.0, 0.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  bool done_value = true;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         3, Fixture::Timeout(),
                         [&](bool ok) { done_value = ok; });
  f.scheduler.Run();
  EXPECT_FALSE(done_value);
  EXPECT_EQ(network.counters(TrafficClass::kData).attempted, 3U);
}

TEST(HopTransportTest, RetransmissionRecoversLoss) {
  // Drop only the first transmission: loss rng with rate such that first
  // draw losses. Use rate 1.0 for the first send then 0: emulate via a
  // failed first second. Simpler: link down during second 0, up in second 1,
  // timeout pushes the retry into second 1.
  Fixture f;
  std::uint64_t seed = 0;
  for (; seed < 20'000; ++seed) {
    const FailureSchedule schedule(seed, 0.5);
    if (!schedule.IsUp(f.link, SimTime::Zero()) &&
        schedule.IsUp(f.link, SimTime::FromMicros(1'050'000))) {
      break;
    }
  }
  ASSERT_LT(seed, 20'000U);
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(seed, 0.5),
                         0.0, Rng(1));
  int arrivals = 0;
  HopTransport transport(network,
                         [&](NodeId, const Packet&, NodeId) { ++arrivals; });
  bool acked = false;
  // Timeout of 1.05 s puts transmission #2 into the next failure epoch.
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         2, SimDuration::Millis(1050),
                         [&](bool ok) { acked = ok; });
  f.scheduler.Run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(network.counters(TrafficClass::kData).attempted, 2U);
}

TEST(HopTransportTest, DuplicateDataSuppressedButReAcked) {
  // ACK is lost (but data passes): sender retransmits, receiver must not
  // hand the duplicate to the protocol yet must re-ACK.
  Fixture f;
  Graph graph = Line(2, SimDuration::Millis(10));
  Scheduler& scheduler = f.scheduler;
  // Loss draws are keyed (pure hashes of draw address, not a sequential
  // stream): search a seed where data tx#0 passes, its ACK drops, data tx#1
  // passes and its ACK passes. The addresses below mirror OverlayNetwork:
  // data from node 0 travels direction 0 of link 0 (draw_a = (0<<2)|kData),
  // the ACK comes back on direction 1 ((1<<2)|kAck) keyed by
  // (copy_id<<4)|tx_index, with copy_id = ((sender+1)<<40)|0.
  const std::uint64_t copy = std::uint64_t{1} << 40;
  std::uint64_t seed = 0;
  for (; seed < 100'000; ++seed) {
    const std::uint64_t keyed = Rng(seed).Fork("keyed")();
    if (!KeyedBernoulli(0.5, keyed, 0, 0, 0) &&
        KeyedBernoulli(0.5, keyed, 5, (copy << 4) | 0, 0) &&
        !KeyedBernoulli(0.5, keyed, 0, 1, 0) &&
        !KeyedBernoulli(0.5, keyed, 5, (copy << 4) | 1, 0)) {
      break;
    }
  }
  ASSERT_LT(seed, 100'000U);
  OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0), 0.5,
                         Rng(seed));
  const LinkId link = *graph.FindEdge(NodeId(0), NodeId(1));
  int deliveries = 0;
  HopTransport transport(network,
                         [&](NodeId, const Packet&, NodeId) { ++deliveries; });
  bool acked = false;
  transport.SendReliable(NodeId(0), link, Packet(TestMessage(), {NodeId(1)}),
                         2, SimDuration::Millis(21),
                         [&](bool ok) { acked = ok; });
  scheduler.Run();
  EXPECT_EQ(deliveries, 1);  // duplicate suppressed
  EXPECT_TRUE(acked);        // second ACK got through
  EXPECT_EQ(network.counters(TrafficClass::kAck).attempted, 2U);
}

TEST(HopTransportTest, DoneRunsExactlyOnce) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(0.0, 0.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  int done_calls = 0;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         3, Fixture::Timeout(), [&](bool) { ++done_calls; });
  f.scheduler.Run();
  EXPECT_EQ(done_calls, 1);
}

TEST(HopTransportTest, ConcurrentSendsIndependent) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(0.0, 0.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  int acks = 0;
  for (int i = 0; i < 10; ++i) {
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}), 1,
                           Fixture::Timeout(), [&](bool ok) { acks += ok; });
  }
  f.scheduler.Run();
  EXPECT_EQ(acks, 10);
}

TEST(HopTransportTest, AckLostOnLastTransmissionDeliversButReportsFailure) {
  // Regression: the ACK for the final (m-th) transmission is lost. The
  // sender must report done(false) after the timeout — and the packet must
  // nevertheless have been handed up exactly once downstream. Protocols
  // treating done(false) as "not delivered" would re-inject a duplicate;
  // the header documents this exact hazard.
  Fixture f;
  // Keyed loss draws: data tx#0 passes, its ACK drops (addresses as in
  // DuplicateDataSuppressedButReAcked above).
  const std::uint64_t copy = std::uint64_t{1} << 40;
  std::uint64_t seed = 0;
  for (; seed < 100'000; ++seed) {
    const std::uint64_t keyed = Rng(seed).Fork("keyed")();
    if (!KeyedBernoulli(0.5, keyed, 0, 0, 0) &&
        KeyedBernoulli(0.5, keyed, 5, (copy << 4) | 0, 0)) {
      break;
    }
  }
  ASSERT_LT(seed, 100'000U);
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.5,
                         Rng(seed));
  int deliveries = 0;
  HopTransport transport(network,
                         [&](NodeId, const Packet&, NodeId) { ++deliveries; });
  bool done_called = false;
  bool done_value = true;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/1, Fixture::Timeout(), [&](bool ok) {
                           done_called = true;
                           done_value = ok;
                         });
  f.scheduler.Run();
  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_value);  // sender never saw the ACK
  EXPECT_EQ(deliveries, 1);  // ...but the copy was delivered, exactly once
  EXPECT_EQ(network.counters(TrafficClass::kData).attempted, 1U);
  EXPECT_EQ(network.counters(TrafficClass::kAck).attempted, 1U);
  EXPECT_EQ(transport.pending_count(), 0U);
}

TEST(HopTransportTest, LateAckCountsSpuriousRetransmission) {
  // RTT is 20 ms (ack_delay_factor 1) but the timer fires at 15 ms: the
  // retransmission is already pointless when the first ACK lands.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  bool acked = false;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/2, SimDuration::Millis(15),
                         [&](bool ok) { acked = ok; });
  f.scheduler.Run();
  EXPECT_TRUE(acked);
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.transmissions, 2U);
  EXPECT_EQ(stats.retransmissions, 1U);
  EXPECT_EQ(stats.spurious_retransmissions, 1U);
  EXPECT_GE(stats.rtt_samples, 1U);
  EXPECT_EQ(stats.pending_copies, 0U);
}

TEST(HopTransportTest, TimelyAckArmsNoTimer) {
  // The ACK of every send is resolved with its data leg; on a 20 ms round
  // trip (ack_delay_factor 1) a 25 ms timeout can only ever be cancelled,
  // so the send leaves the data leg and the ACK in the queue and no timer.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  bool acked = false;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/2, SimDuration::Millis(25),
                         [&](bool ok) { acked = ok; });
  EXPECT_EQ(f.scheduler.pending_count(), 2U);
  f.scheduler.Run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(transport.stats().transmissions, 1U);

  // A timeout the ACK can lose to (15 ms), or tie with (20 ms: the event
  // keys decide, and the timer's sorts first), still arms the timer.
  for (const int timeout_ms : {15, 20}) {
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}),
                           /*max_tx=*/1, SimDuration::Millis(timeout_ms),
                           nullptr);
    EXPECT_EQ(f.scheduler.pending_count(), 3U) << timeout_ms << " ms";
    f.scheduler.Run();
  }
}

TEST(HopTransportTest, AckAfterExpiryStillFeedsTheEstimator) {
  // One transmission under a 15 ms timeout on a 20 ms round trip: the copy
  // gives up with its ACK still in flight, and the tombstone it leaves lets
  // that ACK count as a round-trip sample when it lands.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  bool done_called = false;
  bool done_value = true;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/1, SimDuration::Millis(15), [&](bool ok) {
                           done_called = true;
                           done_value = ok;
                         });
  f.scheduler.Run();
  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_value);
  EXPECT_EQ(transport.stats().rtt_samples, 1U);
  EXPECT_EQ(transport.stats().pending_copies, 0U);
}

TEST(HopTransportTest, AdaptiveRtoStopsSpuriousRetransmissionsAfterLearning) {
  // Same late-timer situation, adaptive mode: the first copy pays one
  // spurious retransmission, but the RTT sample raises the link's RTO so
  // later copies wait out the 20 ms round trip.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransportConfig config;
  config.adaptive_rto = true;
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {},
                         config);
  int acks = 0;
  const auto send_one = [&] {
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}),
                           /*max_tx=*/2, SimDuration::Millis(15),
                           [&](bool ok) { acks += ok; });
  };
  send_one();
  f.scheduler.Run();
  const std::uint64_t spurious_after_first =
      transport.stats().spurious_retransmissions;
  for (int i = 0; i < 5; ++i) {
    send_one();
    f.scheduler.Run();
  }
  EXPECT_EQ(acks, 6);
  // No further spurious retransmissions once the estimator has a sample.
  EXPECT_EQ(transport.stats().spurious_retransmissions, spurious_after_first);
  EXPECT_EQ(transport.stats().transmissions,
            6U + spurious_after_first);
}

TEST(HopTransportTest, FixedTimerKeepsFiringSpuriouslyWithoutAdaptation) {
  // Control for the test above: fixed mode never learns, so every copy
  // retransmits spuriously under the same late-timer conditions.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  int acks = 0;
  for (int i = 0; i < 6; ++i) {
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}),
                           /*max_tx=*/2, SimDuration::Millis(15),
                           [&](bool ok) { acks += ok; });
    f.scheduler.Run();
  }
  EXPECT_EQ(acks, 6);
  EXPECT_EQ(transport.stats().spurious_retransmissions, 6U);
}

TEST(HopTransportTest, ClearDedupStateKeepsPendingSendsAlive) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(0.0, 0.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  bool acked = false;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         1, Fixture::Timeout(), [&](bool ok) { acked = ok; });
  transport.ClearDedupState();
  f.scheduler.Run();
  EXPECT_TRUE(acked);
}

// Sends one copy whose ACK is slower than its timer: on the 10 ms link
// with a full round trip (ack_delay_factor 1) and a 15 ms timeout,
// transmission 0 lands at 10 ms, the timer retransmits at 15 ms,
// transmission 0's ACK closes the copy at 20 ms and transmission 1 lands
// at 25 ms as a duplicate. `between` runs at 12 ms, after the hand-up and
// before the duplicate lands. Returns how often node 1 handed the copy up.
int HandUpsWithDuplicateAfter(
    const std::function<void(HopTransport&)>& between) {
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  int handed_up = 0;
  HopTransport transport(network,
                         [&](NodeId, const Packet&, NodeId) { ++handed_up; });
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/2, SimDuration::Millis(15), nullptr);
  f.scheduler.RunUntil(SimTime::Zero() + SimDuration::Millis(12));
  EXPECT_EQ(handed_up, 1);
  between(transport);
  f.scheduler.Run();
  EXPECT_EQ(network.counters(TrafficClass::kData).delivered, 2U);
  EXPECT_EQ(transport.pending_count(), 0U);
  return handed_up;
}

TEST(HopTransportTest, DuplicateAfterOneRotationIsSuppressed) {
  // The previous generation is still consulted for one more epoch.
  EXPECT_EQ(HandUpsWithDuplicateAfter(
                [](HopTransport& transport) { transport.ClearDedupState(); }),
            1);
}

TEST(HopTransportTest, DuplicateAfterTwoRotationsIsHandedUp) {
  EXPECT_EQ(HandUpsWithDuplicateAfter([](HopTransport& transport) {
              transport.ClearDedupState();
              transport.ClearDedupState();
            }),
            2);
}

TEST(HopTransportTest, DuplicateAfterReceiverCrashIsHandedUp) {
  // The restarted receiver has no memory of what it handed up.
  EXPECT_EQ(HandUpsWithDuplicateAfter([](HopTransport& transport) {
              transport.OnBrokerCrash(NodeId(1));
            }),
            2);
}

// Records every data arrival the transport reports: when it landed and
// whether it was handed up.
class ArrivalLog final : public TransportObserver {
 public:
  explicit ArrivalLog(const Scheduler& scheduler) : scheduler_(scheduler) {}
  void OnCopyArrival(std::uint64_t, NodeId, NodeId, const Packet&,
                     bool handed_up) override {
    arrivals.emplace_back(scheduler_.now(), handed_up);
  }
  std::vector<std::pair<SimTime, bool>> arrivals;

 private:
  const Scheduler& scheduler_;
};

TEST(HopTransportTest, OvertakingRetransmissionIsHandedUpAndOvertakenOneNot) {
  // Transmission 0 enters a gray epoch that stretches the 10 ms link to
  // 100 ms; its 15 ms timer retransmits in the next epoch, which is clean,
  // so transmission 1 lands first. The copy is handed up once, when the
  // later transmission lands, and the earlier one is a duplicate.
  Fixture f;
  GrayFailureConfig gray;
  gray.probability = 0.5;
  gray.extra_loss = 0.0;
  gray.delay_factor = 10.0;
  gray.asymmetry = 0.0;
  const SimTime send_at = SimTime::FromMicros(990'000);
  const SimTime retransmit_at = send_at + SimDuration::Millis(15);
  std::uint64_t seed = 1;
  for (; seed < 1000; ++seed) {
    const GrayFailureSchedule schedule(seed, gray);
    if (schedule.Active(f.link, send_at) &&
        !schedule.Active(f.link, retransmit_at)) {
      break;
    }
  }
  ASSERT_LT(seed, 1000U);
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0),
                         OverlayNetworkConfig{}, Rng(1),
                         NodeFailureSchedule(),
                         GrayFailureSchedule(seed, gray));
  ArrivalLog log(f.scheduler);
  HopTransportConfig config;
  config.observer = &log;
  int handed_up = 0;
  HopTransport transport(
      network, [&](NodeId, const Packet&, NodeId) { ++handed_up; }, config);
  f.scheduler.RunUntil(send_at);
  bool acked = false;
  transport.SendReliable(NodeId(0), f.link, Packet(TestMessage(), {NodeId(1)}),
                         /*max_tx=*/2, SimDuration::Millis(15),
                         [&](bool ok) { acked = ok; });
  f.scheduler.Run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(handed_up, 1);
  ASSERT_EQ(log.arrivals.size(), 2U);
  EXPECT_EQ(log.arrivals[0],
            std::make_pair(retransmit_at + SimDuration::Millis(10), true));
  EXPECT_EQ(log.arrivals[1],
            std::make_pair(send_at + SimDuration::Millis(100), false));
  EXPECT_EQ(transport.pending_count(), 0U);
}

TEST(HopTransportTest, DedupEntriesCountBothGenerationsAcrossRotationAndCrash) {
  // Late-ACK copies as in HandUpsWithDuplicateAfter land twice, 15 ms apart.
  Fixture f;
  OverlayNetwork network(f.graph, f.scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1), /*ack_delay_factor=*/1.0);
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {});
  const auto entries = [&](NodeId node) {
    std::vector<BrokerHealth> health(f.graph.node_count());
    transport.SampleBrokerHealth(health);
    return health[node.underlying()].dedup_entries;
  };
  const auto send = [&](int max_tx, int timeout_ms) {
    transport.SendReliable(NodeId(0), f.link,
                           Packet(TestMessage(), {NodeId(1)}), max_tx,
                           SimDuration::Millis(timeout_ms), nullptr);
  };
  const auto run_for = [&](int ms) {
    f.scheduler.RunUntil(f.scheduler.now() + SimDuration::Millis(ms));
  };
  // A duplicate of a copy in the current generation adds no entry.
  send(/*max_tx=*/2, /*timeout_ms=*/15);
  f.scheduler.Run();
  EXPECT_EQ(entries(NodeId(1)), 1U);
  send(/*max_tx=*/1, /*timeout_ms=*/25);
  f.scheduler.Run();
  EXPECT_EQ(entries(NodeId(1)), 2U);
  // A rotation moves both into the previous generation.
  transport.ClearDedupState();
  EXPECT_EQ(entries(NodeId(1)), 2U);
  // A copy lands, the generations rotate, then its duplicate lands: the
  // suppressed duplicate enters the current generation again.
  send(/*max_tx=*/2, /*timeout_ms=*/15);
  run_for(12);
  EXPECT_EQ(entries(NodeId(1)), 3U);
  transport.ClearDedupState();
  EXPECT_EQ(entries(NodeId(1)), 1U);
  f.scheduler.Run();
  EXPECT_EQ(entries(NodeId(1)), 2U);
  // A crash voids both generations of that broker.
  transport.OnBrokerCrash(NodeId(1));
  EXPECT_EQ(entries(NodeId(1)), 0U);
  send(/*max_tx=*/1, /*timeout_ms=*/25);
  f.scheduler.Run();
  EXPECT_EQ(entries(NodeId(1)), 1U);
  // The sender never received a data copy.
  EXPECT_EQ(entries(NodeId(0)), 0U);
}

TEST(HopTransportTest, SendReliableHandsBackTheRecycledSlotsBuffers) {
  Fixture f;
  OverlayNetwork network = f.MakeNetwork(0.0, 0.0);
  std::vector<std::vector<NodeId>> arrived;
  HopTransport transport(network,
                         [&](NodeId, const Packet& packet, NodeId) {
                           arrived.push_back(packet.destinations());
                         });
  Packet first(TestMessage(), {NodeId(1), NodeId(5)});
  first.RecordOnPath(NodeId(0));
  const NodeId* first_destinations = first.destinations().data();
  const NodeId* first_path = first.routing_path().data();
  transport.SendReliable(NodeId(0), f.link, std::move(first), 1,
                         Fixture::Timeout(), nullptr);
  f.scheduler.Run();  // ACKed: the slot is free again, buffers kept

  Packet second(TestMessage(), {NodeId(1)});
  transport.SendReliable(NodeId(0), f.link, std::move(second), 1,
                         Fixture::Timeout(), nullptr);
  // The second send recycled the first one's slot, and `second` now holds
  // that slot's previous buffers, stale contents and all.
  EXPECT_EQ(second.destinations().data(), first_destinations);
  EXPECT_EQ(second.routing_path().data(), first_path);
  EXPECT_EQ(second.destinations(), (std::vector<NodeId>{NodeId(1), NodeId(5)}));
  EXPECT_EQ(second.routing_path(), std::vector<NodeId>{NodeId(0)});
  // What went on the wire is the packet that was sent.
  f.scheduler.Run();
  ASSERT_EQ(arrived.size(), 2U);
  EXPECT_EQ(arrived[1], std::vector<NodeId>{NodeId(1)});
}

}  // namespace
}  // namespace dcrd
