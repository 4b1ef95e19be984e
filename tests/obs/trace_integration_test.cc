// End-to-end observability: a traced run must (a) leave the simulation
// results bit-identical to an untraced run, (b) produce a trace from which
// a packet's full hop timeline — including retransmissions and upstream
// reroutes — can be reconstructed, and (c) dump a postmortem when the
// invariant checker fires.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/topology.h"
#include "net/overlay_network.h"
#include "obs/analysis/model_audit.h"
#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/timeseries.h"
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

// The stressed config with broker crashes, peer-death detection and the
// adaptive RTO: the failure-epoch tick then drives the crash lifecycle as
// well as the trace's link records.
ScenarioConfig CrashConfig() {
  ScenarioConfig config = StressedConfig();
  config.broker_mtbf = SimDuration::Seconds(30);
  config.broker_mttr = SimDuration::Seconds(5);
  config.peer_death_detection = true;
  config.adaptive_rto = true;
  return config;
}

// StressedConfig's rebuild instants at a 20 s monitor interval: the setup
// rebuild at t = 0 and one per epoch through the 60 s end.
const std::vector<std::int64_t> kRebuildsEvery20sUs = {0, 20'000'000,
                                                       40'000'000, 60'000'000};

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every result field of two runs of the same experiment; observability
// bookkeeping (trace_records_overwritten) is not a result.
void ExpectSameResults(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.qos_pairs, b.qos_pairs);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.ack_transmissions, b.ack_transmissions);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.messages_published, b.messages_published);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.spurious_retransmissions, b.spurious_retransmissions);
  EXPECT_EQ(a.rtt_samples, b.rtt_samples);
  EXPECT_EQ(a.broker_crashes, b.broker_crashes);
  EXPECT_EQ(a.broker_restarts, b.broker_restarts);
  EXPECT_EQ(a.dropped_crash, b.dropped_crash);
  EXPECT_EQ(a.crash_copies_killed, b.crash_copies_killed);
  EXPECT_EQ(a.peer_deaths, b.peer_deaths);
  EXPECT_EQ(a.peer_probes, b.peer_probes);
  EXPECT_EQ(a.peer_revivals, b.peer_revivals);
  EXPECT_EQ(a.resyncs_started, b.resyncs_started);
  EXPECT_EQ(a.resyncs_completed, b.resyncs_completed);
  EXPECT_EQ(a.total_resync_time_us, b.total_resync_time_us);
  EXPECT_EQ(a.max_resync_time_us, b.max_resync_time_us);
  EXPECT_EQ(a.crash_excused_duplicates, b.crash_excused_duplicates);
  EXPECT_EQ(a.invariant_violation_count, b.invariant_violation_count);
  EXPECT_EQ(a.lateness_ratios, b.lateness_ratios);
  EXPECT_EQ(a.delay_ms_samples, b.delay_ms_samples);
}

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

  ExpectSameResults(traced, untraced);
  // Observability fields are not part of the experiment's identity.
  EXPECT_EQ(traced_config.Describe(), StressedConfig().Describe());
}

// With broker crashes on, one failure-epoch tick runs both the trace's link
// records and the crash lifecycle; tracing must not move the lifecycle.
TEST(TraceIntegrationTest, TracedCrashRunMatchesUntracedRunExactly) {
  const RunSummary untraced = RunScenario(CrashConfig());
  ASSERT_GT(untraced.broker_crashes, 0u);
  ASSERT_GT(untraced.broker_restarts, 0u);
  ASSERT_GT(untraced.resyncs_completed, 0u);
  ASSERT_GT(untraced.crash_copies_killed, 0u);

  TempFile trace_file("crash_eq.jsonl");
  TempFile metrics_file("crash_eq_metrics.json");
  TempFile series_file("crash_eq_series.json");
  ScenarioConfig traced_config = CrashConfig();
  traced_config.trace_out = trace_file.path;
  traced_config.metrics_json = metrics_file.path;
  traced_config.timeseries_out = series_file.path;
  const RunSummary traced = RunScenario(traced_config);

  ExpectSameResults(traced, untraced);
  std::ifstream in(trace_file.path);
  std::size_t crashes = 0;
  ASSERT_TRUE(ForEachTraceJsonl(in, [&](const TraceRecord& record) {
    if (record.kind == TraceEventKind::kBrokerDown) ++crashes;
  }));
  EXPECT_EQ(crashes, untraced.broker_crashes);
}

// Each rebuild — the setup one at t = 0 and one per monitoring epoch —
// writes exactly one kRebuild record and one set of audit model rows,
// stamped with the rebuild's instant.
TEST(TraceIntegrationTest, RebuildRecordsAndAuditRowsStampEveryEpoch) {
  TempFile trace_file("rebuild_epochs.jsonl");
  TempFile model_file("rebuild_epochs_model.jsonl");
  ScenarioConfig config = StressedConfig();
  config.monitor_interval = SimDuration::Seconds(20);
  config.trace_out = trace_file.path;
  config.delay_audit_out = model_file.path;
  RunScenario(config);

  std::ifstream trace_in(trace_file.path);
  std::vector<std::int64_t> rebuilds_us;
  ASSERT_TRUE(ForEachTraceJsonl(trace_in, [&](const TraceRecord& record) {
    if (record.kind == TraceEventKind::kRebuild) {
      rebuilds_us.push_back(record.t_us);
    }
  }));
  EXPECT_EQ(rebuilds_us, kRebuildsEvery20sUs);

  std::ifstream model_in(model_file.path);
  std::map<std::int64_t, std::size_t> rows_at;
  ASSERT_TRUE(ForEachModelRow(
      model_in, [&](const ModelRow& row) { ++rows_at[row.t_us]; }));
  std::vector<std::int64_t> stamps_us;
  for (const auto& [t_us, rows] : rows_at) {
    stamps_us.push_back(t_us);
    // No churn: every epoch audits the same destinations.
    EXPECT_EQ(rows, rows_at.begin()->second) << "t_us " << t_us;
  }
  EXPECT_EQ(stamps_us, kRebuildsEvery20sUs);
  EXPECT_GT(rows_at.begin()->second, 0u);
}

// The audit rows of a rebuild are written right after it, when every new
// gossip still holds the publisher at <inf,0>, so distributed mode writes
// an empty model file, with broker crashes or without (solver mode writes
// rows: see above). A change that moves the audit instant past the first
// gossip wave makes the router CHECK-fail here until gossip rows get a
// path of their own.
TEST(TraceIntegrationTest, DistributedModeWritesNoAuditRows) {
  for (const bool crashes : {false, true}) {
    TempFile model_file("distributed_audit_model.jsonl");
    ScenarioConfig config;
    config.dcrd_distributed = true;
    config.node_count = 30;
    config.topology = TopologyKind::kRandomDegree;
    config.degree = 5;
    config.failure_probability = 0.06;
    config.sim_time = SimDuration::Seconds(60);
    config.monitor_interval = SimDuration::Seconds(20);
    config.delay_audit_out = model_file.path;
    if (crashes) {
      config.broker_mtbf = SimDuration::Seconds(30);
      config.peer_death_detection = true;
    }
    const RunSummary summary = RunScenario(config);
    EXPECT_GT(summary.control_transmissions, 0u);
    if (crashes) {
      EXPECT_GT(summary.broker_restarts, 0u);
    }
    std::ifstream model_in(model_file.path);
    ASSERT_TRUE(model_in.is_open()) << "crashes " << crashes;
    std::size_t rows = 0;
    ASSERT_TRUE(ForEachModelRow(model_in, [&](const ModelRow&) { ++rows; }));
    EXPECT_EQ(rows, 0u) << "crashes " << crashes;
  }
}

TEST(TraceIntegrationTest, MetricsCarrySolverCountersForDcrdOnly) {
  // The registry exports the DCRD router's control-plane counters; a
  // baseline router runs no <d,r> solver and exports none. The per-epoch
  // view lives in the time series: dcrd.solves grows at the setup rebuild
  // (t = 0) and at each rebuild instant, and nowhere else.
  struct Telemetry {
    std::string metrics;
    TimeSeriesStore series;
  };
  const auto run = [](RouterKind router) {
    TempFile metrics_file("solver_counters_metrics.json");
    TempFile series_file("solver_counters_series.json");
    ScenarioConfig config = StressedConfig();
    config.router = router;
    config.monitor_interval = SimDuration::Seconds(20);
    config.metrics_json = metrics_file.path;
    config.timeseries_out = series_file.path;
    RunScenario(config);
    Telemetry out;
    out.metrics = ReadFile(metrics_file.path);
    std::string error;
    EXPECT_TRUE(
        LoadTimeSeriesJson(ReadFile(series_file.path), &out.series, &error))
        << error;
    return out;
  };

  const Telemetry dcrd = run(RouterKind::kDcrd);
  // The metrics document is the end-of-run registry: three sections, no
  // per-epoch block.
  std::vector<std::string> sections;
  std::map<std::string, std::uint64_t> counters;
  JsonCursor cursor;
  cursor.text = dcrd.metrics;
  ASSERT_TRUE(cursor.ReadObject([&](const std::string& key) {
    sections.push_back(key);
    if (key != "counters") return cursor.SkipValue();
    return cursor.ReadObject([&](const std::string& name) {
      return cursor.ReadU64(&counters[name]);
    });
  })) << cursor.error;
  EXPECT_EQ(sections,
            (std::vector<std::string>{"counters", "gauges", "histograms"}));
  for (const char* name : {"dcrd.solves", "dcrd.sweeps", "dcrd.unconverged"}) {
    EXPECT_EQ(counters.count(name), 1u) << name;
  }

  const TimeSeriesStore& series = dcrd.series;
  std::size_t solves = series.counter_names.size();
  for (std::size_t i = 0; i < series.counter_names.size(); ++i) {
    if (series.counter_names[i] == "dcrd.solves") solves = i;
  }
  ASSERT_LT(solves, series.counter_names.size());
  std::vector<std::int64_t> solved_at_us;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < series.samples(); ++s) {
    const std::uint64_t delta = series.counter_deltas[solves][s];
    if (delta != 0) solved_at_us.push_back(series.t_us[s]);
    total += delta;
  }
  EXPECT_EQ(solved_at_us, kRebuildsEvery20sUs);
  EXPECT_EQ(counters["dcrd.solves"], total);

  const Telemetry tree = run(RouterKind::kRTree);
  EXPECT_EQ(tree.metrics.find("\"dcrd."), std::string::npos);
  for (const std::string& name : tree.series.counter_names) {
    EXPECT_NE(name.rfind("dcrd.", 0), 0u) << name;
  }
}

TEST(TraceIntegrationTest, TimelineReconstructsRetransmitsAndReroutes) {
  TempFile trace_file("trace_timeline.jsonl");
  ScenarioConfig config = StressedConfig();
  config.trace_out = trace_file.path;
  RunScenario(config);

  std::ifstream in(trace_file.path);
  ASSERT_TRUE(in.is_open());
  std::vector<TraceRecord> records;
  ASSERT_TRUE(ForEachTraceJsonl(
      in, [&](const TraceRecord& record) { records.push_back(record); }));
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
