// End-to-end observability: a traced run must (a) leave the simulation
// results bit-identical to an untraced run, (b) produce a trace from which
// a packet's full hop timeline — including retransmissions and upstream
// reroutes — can be reconstructed, and (c) dump a postmortem when the
// invariant checker fires.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/topology.h"
#include "net/overlay_network.h"
#include "obs/flight_recorder.h"
#include "obs/trace_export.h"
#include "sim/engine.h"
#include "sim/invariant_checker.h"
#include "sim/metrics.h"

namespace dcrd {
namespace {

// Sparse, failure-heavy, m = 2: short sending lists make upstream reroutes
// real, and the retransmission budget makes retransmits real.
ScenarioConfig StressedConfig() {
  ScenarioConfig config;
  config.node_count = 20;
  config.topology = TopologyKind::kRandomDegree;
  config.degree = 3;
  config.failure_probability = 0.15;
  config.loss_rate = 1e-3;
  config.max_transmissions = 2;
  config.sim_time = SimDuration::Seconds(60);
  config.seed = 1;
  return config;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(TraceIntegrationTest, TracedRunMatchesUntracedRunExactly) {
  const RunSummary untraced = RunScenario(StressedConfig());

  TempFile trace_file("trace_eq.jsonl");
  TempFile metrics_file("trace_eq_metrics.json");
  TempFile series_file("trace_eq_series.json");
  ScenarioConfig traced_config = StressedConfig();
  traced_config.trace = true;
  traced_config.trace_out = trace_file.path;
  traced_config.metrics_json = metrics_file.path;
  traced_config.timeseries_out = series_file.path;
  traced_config.timeseries_interval = SimDuration::Millis(500);
  const RunSummary traced = RunScenario(traced_config);

  EXPECT_EQ(traced.expected_pairs, untraced.expected_pairs);
  EXPECT_EQ(traced.delivered_pairs, untraced.delivered_pairs);
  EXPECT_EQ(traced.qos_pairs, untraced.qos_pairs);
  EXPECT_EQ(traced.duplicate_deliveries, untraced.duplicate_deliveries);
  EXPECT_EQ(traced.data_transmissions, untraced.data_transmissions);
  EXPECT_EQ(traced.ack_transmissions, untraced.ack_transmissions);
  EXPECT_EQ(traced.control_transmissions, untraced.control_transmissions);
  EXPECT_EQ(traced.messages_published, untraced.messages_published);
  EXPECT_EQ(traced.retransmissions, untraced.retransmissions);
  EXPECT_EQ(traced.spurious_retransmissions,
            untraced.spurious_retransmissions);
  EXPECT_EQ(traced.delay_ms_samples, untraced.delay_ms_samples);
  // Observability fields are not part of the experiment's identity.
  EXPECT_EQ(traced_config.Describe(), StressedConfig().Describe());
}

TEST(TraceIntegrationTest, MetricsCarrySolverCountersForDcrdOnly) {
  // The registry exports the DCRD router's control-plane counters; a
  // baseline router runs no <d,r> solver and exports none.
  const auto metrics_of = [](RouterKind router) {
    TempFile metrics_file("solver_counters_metrics.json");
    ScenarioConfig config = StressedConfig();
    config.router = router;
    config.metrics_json = metrics_file.path;
    RunScenario(config);
    std::ifstream in(metrics_file.path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string dcrd = metrics_of(RouterKind::kDcrd);
  for (const char* name : {"\"dcrd.solves\"", "\"dcrd.sweeps\"",
                           "\"dcrd.unconverged\""}) {
    EXPECT_NE(dcrd.find(name), std::string::npos) << name;
  }
  // Epoch 0 already holds the setup rebuild's solves.
  EXPECT_EQ(dcrd.find("\"dcrd.solves\": 0,"), std::string::npos);
  EXPECT_EQ(metrics_of(RouterKind::kRTree).find("\"dcrd."),
            std::string::npos);
}

TEST(TraceIntegrationTest, TimelineReconstructsRetransmitsAndReroutes) {
  TempFile trace_file("trace_timeline.jsonl");
  ScenarioConfig config = StressedConfig();
  config.trace_out = trace_file.path;
  RunScenario(config);

  std::ifstream in(trace_file.path);
  ASSERT_TRUE(in.is_open());
  std::size_t dropped = 0;
  const std::vector<TraceRecord> records = ReadTraceJsonl(in, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_FALSE(records.empty());

  std::uint64_t retransmitted = TraceRecord::kNoPacket;
  std::uint64_t rerouted = TraceRecord::kNoPacket;
  for (const TraceRecord& record : records) {
    if (record.kind == TraceEventKind::kRetransmit) {
      retransmitted = record.packet;
    }
    if (record.kind == TraceEventKind::kReroute) rerouted = record.packet;
  }
  ASSERT_NE(retransmitted, TraceRecord::kNoPacket)
      << "stressed run produced no retransmission";
  ASSERT_NE(rerouted, TraceRecord::kNoPacket)
      << "stressed run produced no upstream reroute";

  // The retransmitted packet's timeline starts with its publish and names
  // the retransmission.
  std::ostringstream timeline;
  ASSERT_GT(PrintPacketTimeline(timeline, records, retransmitted), 0u);
  const std::string out = timeline.str();
  EXPECT_NE(out.find("publish"), std::string::npos) << out;
  EXPECT_NE(out.find("retransmit"), std::string::npos) << out;

  std::ostringstream rerouted_timeline;
  ASSERT_GT(PrintPacketTimeline(rerouted_timeline, records, rerouted), 0u);
  EXPECT_NE(rerouted_timeline.str().find("reroute"), std::string::npos);
}

TEST(TraceIntegrationTest, InvariantViolationDumpsPostmortemWithThePacket) {
  // Drive the checker directly with a routing loop while a recorder is
  // attached; the first violation must dump the recorder's recent events
  // (which include the offending packet) to stderr.
  Graph graph = Line(3, SimDuration::Millis(10));
  Scheduler scheduler;
  FailureSchedule failures(1, 0.0);
  OverlayNetwork network(graph, scheduler, failures, 0.0, Rng(1));
  SubscriptionTable subscriptions;
  subscriptions.AddTopic(NodeId(0));
  subscriptions.AddSubscription(TopicId(0), NodeId(2),
                                SimDuration::Millis(100));
  MetricsCollector metrics(subscriptions);
  SimInvariantChecker checker(network, subscriptions, metrics);

  FlightRecorder recorder(scheduler);
  recorder.set_enabled(true);
  checker.set_flight_recorder(&recorder);

  Message message;
  message.id = MessageId(77);
  message.topic = TopicId(0);
  message.publisher = NodeId(0);
  message.publish_time = SimTime::Zero();
  recorder.Record(TraceEventKind::kPublish, 77, 0, NodeId(0), NodeId(),
                  LinkId());
  recorder.Record(TraceEventKind::kHopSend, 77, 1, NodeId(0), NodeId(1),
                  *graph.FindEdge(NodeId(0), NodeId(1)));

  Packet packet(message, {NodeId(2)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(1));
  packet.RecordOnPath(NodeId(2));

  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  checker.OnCopyArrival(1, NodeId(0), NodeId(2), packet, /*handed_up=*/true);
  std::cerr.rdbuf(old);

  EXPECT_EQ(checker.violation_count(), 1u);
  const std::string dump = captured.str();
  EXPECT_NE(dump.find("postmortem"), std::string::npos) << dump;
  EXPECT_NE(dump.find("routing loop"), std::string::npos) << dump;
  EXPECT_NE(dump.find("m77"), std::string::npos) << dump;
  EXPECT_NE(dump.find("hop-send"), std::string::npos) << dump;
}

}  // namespace
}  // namespace dcrd
