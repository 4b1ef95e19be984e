// Delay-provenance analysis: the decomposition's exact-sum invariant under
// the full fault cocktail, the model-vs-observed auditor against a
// closed-form fixture, the model-row parser, exact histogram merging, and
// the lossy-capture warnings.
#include "obs/analysis/delay_decomposition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dcrd/dr.h"
#include "obs/analysis/model_audit.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_export.h"
#include "sim/engine.h"

namespace dcrd {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<TraceRecord> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::size_t dropped = 0;
  std::vector<TraceRecord> records = ReadTraceJsonl(in, &dropped);
  EXPECT_EQ(dropped, 0u);
  return records;
}

// Every fault process at once: link failures, loss, gray degradation,
// upstream reroutes (m = 2 on a sparse overlay), and the adaptive RTO.
ScenarioConfig ChaosCocktailConfig() {
  ScenarioConfig config;
  config.node_count = 20;
  config.topology = TopologyKind::kRandomDegree;
  config.degree = 3;
  config.failure_probability = 0.15;
  config.loss_rate = 1e-3;
  config.gray_probability = 0.2;
  config.max_transmissions = 2;
  config.adaptive_rto = true;
  config.sim_time = SimDuration::Seconds(60);
  config.seed = 1;
  return config;
}

TEST(DelayDecompositionTest, ChaosCocktailComponentsSumExactly) {
  TempFile trace_file("analysis_chaos.jsonl");
  ScenarioConfig config = ChaosCocktailConfig();
  config.trace_out = trace_file.path;
  RunScenario(config);

  const std::vector<TraceRecord> records = LoadTrace(trace_file.path);
  ASSERT_FALSE(records.empty());

  // The cocktail must actually be in the trace, or the property is vacuous.
  bool saw_retransmit = false, saw_reroute = false, saw_gray = false,
       saw_timer = false;
  std::set<std::pair<std::uint64_t, std::uint32_t>> delivered;
  for (const TraceRecord& r : records) {
    if (r.kind == TraceEventKind::kRetransmit) saw_retransmit = true;
    if (r.kind == TraceEventKind::kReroute) saw_reroute = true;
    if (r.kind == TraceEventKind::kGrayStart) saw_gray = true;
    if (r.kind == TraceEventKind::kTimerArmed) saw_timer = true;
    if (r.kind == TraceEventKind::kDeliver) delivered.insert({r.packet, r.node});
  }
  ASSERT_TRUE(saw_retransmit);
  ASSERT_TRUE(saw_reroute);
  ASSERT_TRUE(saw_gray);
  ASSERT_TRUE(saw_timer);
  ASSERT_FALSE(delivered.empty());

  TraceAnalyzer analyzer;
  analyzer.AddAll(records);
  const DecompositionResult result = analyzer.Decompose();

  // One decomposition per first delivery of each (packet, subscriber) pair.
  EXPECT_EQ(result.deliveries.size(), delivered.size());
  EXPECT_EQ(result.skipped_no_publish, 0u);
  EXPECT_EQ(result.timer_accounting_mismatches, 0u);

  std::int64_t total_sum = 0;
  for (const DeliveryDecomposition& d : result.deliveries) {
    EXPECT_EQ(d.total_us, d.deliver_t_us - d.publish_t_us);
    // The invariant of the whole subsystem: non-negative components that
    // sum *exactly* to the end-to-end delay, for every delivery, under
    // every fault process at once.
    EXPECT_EQ(d.components.Sum(), d.total_us)
        << "packet " << d.packet << " sub " << d.subscriber;
    EXPECT_GE(d.components.propagation_us, 0);
    EXPECT_GE(d.components.queueing_us, 0);
    EXPECT_GE(d.components.retransmit_wait_us, 0);
    EXPECT_GE(d.components.reroute_detour_us, 0);
    EXPECT_GE(d.components.residual_us, 0);
    total_sum += d.total_us;
  }
  EXPECT_EQ(result.total_histogram.count(), result.deliveries.size());
  EXPECT_EQ(result.total_histogram.sum(),
            static_cast<std::uint64_t>(total_sum));

  // With retransmissions and reroutes in the trace, their components must
  // show up somewhere.
  EXPECT_GT(result.component_histograms[2].sum(), 0u);  // retransmit_wait
}

// 3-broker line with distinct link delays: the only topology where every
// Theorem-1 quantity has a pencil-and-paper value. With Pl = Pf = 0 the
// monitor's estimates are exact (alpha from the graph, gamma pinned at 1),
// so d(pub, sub) is exactly the shortest-path delay and every observed
// delivery takes exactly that long — the auditor must agree to the
// microsecond, with zero variance and zero flags.
TEST(ModelAuditTest, ThreeBrokerLineReproducesClosedFormD) {
  TempFile topo_file("analysis_line3.txt");
  {
    std::ofstream topo(topo_file.path);
    topo << "3\n0 1 10000\n1 2 20000\n";
  }
  TempFile trace_file("analysis_line3_trace.jsonl");
  TempFile model_file("analysis_line3_model.jsonl");

  ScenarioConfig config;
  config.router = RouterKind::kDcrd;
  config.topology_file = topo_file.path;
  config.failure_probability = 0.0;
  config.loss_rate = 0.0;
  config.topic_count = 3;
  config.subscriber_probability_min = 1.0;
  config.subscriber_probability_max = 1.0;
  config.sim_time = SimDuration::Seconds(30);
  config.seed = 5;
  config.trace_out = trace_file.path;
  config.delay_audit_out = model_file.path;
  const RunSummary summary = RunScenario(config);
  ASSERT_GT(summary.messages_published, 0u);

  // Closed-form d: the line's pairwise path delays, in microseconds.
  const auto closed_form = [](std::uint32_t a, std::uint32_t b) {
    static const std::int64_t prefix[3] = {0, 10000, 30000};
    return static_cast<double>(std::abs(prefix[a] - prefix[b]));
  };

  // Model side: every exported row must carry the closed-form d, r = 1,
  // and recombine to itself via Eq. 3.
  std::ifstream model_in(model_file.path);
  ASSERT_TRUE(model_in.is_open());
  ModelAuditor auditor;
  std::size_t rows = 0;
  ASSERT_TRUE(ForEachModelRow(model_in, [&](const ModelRow& row) {
    ++rows;
    ASSERT_LT(row.pub, 3u);
    ASSERT_LT(row.sub, 3u);
    EXPECT_NEAR(row.d_us, closed_form(row.pub, row.sub), 0.5) << rows;
    EXPECT_DOUBLE_EQ(row.r, 1.0);
    EXPECT_NEAR(CombineOrdered(row.list).d_us, row.d_us, 0.5);
    auditor.AddModelRow(row);
  }));
  ASSERT_GT(rows, 0u);

  // Observed side, through the same decomposition the CLI uses.
  TraceAnalyzer analyzer;
  analyzer.AddAll(LoadTrace(trace_file.path));
  const DecompositionResult result = analyzer.Decompose();
  ASSERT_FALSE(result.deliveries.empty());
  for (const DeliveryDecomposition& d : result.deliveries) {
    auditor.Observe(d.topic, d.subscriber, d.publish_t_us, d.total_us);
  }

  const AuditReport report = auditor.Finish();
  EXPECT_EQ(report.observed, result.deliveries.size());
  EXPECT_EQ(report.unmatched, 0u);
  EXPECT_EQ(report.matched, report.observed);
  EXPECT_EQ(report.recombine_failures, 0u);
  EXPECT_EQ(report.flagged_cells, 0u);
  ASSERT_GT(report.populated_cells, 0u);

  bool saw_two_hop = false;
  for (const AuditCell& cell : report.cells) {
    if (cell.n == 0) continue;
    // Deterministic wires: every delivery in a cell takes the same time.
    EXPECT_DOUBLE_EQ(cell.stddev_us, 0.0);
    EXPECT_DOUBLE_EQ(cell.mean_us, closed_form(cell.pub, cell.sub));
    // "To the microsecond": observed mean vs the model's expectation.
    EXPECT_LT(std::abs(cell.error_us), 0.5);
    if (closed_form(cell.pub, cell.sub) == 30000.0) saw_two_hop = true;
  }
  EXPECT_TRUE(saw_two_hop)
      << "no publisher at an end of the line — the composite-path case "
         "was never exercised; pick another seed";
}

TEST(ModelAuditTest, ParseModelRowRoundTripsAndRejectsMalformedRows) {
  const std::string good =
      "{\"t\":300000000,\"topic\":2,\"pub\":1,\"sub\":0,"
      "\"deadline_us\":90000,\"d_us\":30000.5,\"r\":0.975,"
      "\"list\":[[1,3,30000.5,0.975],[2,7,45000,1]]}";
  ModelRow row;
  std::string error;
  ASSERT_TRUE(ParseModelRow(good, &row, &error)) << error;
  EXPECT_EQ(row.t_us, 300000000);
  EXPECT_EQ(row.topic, 2u);
  EXPECT_EQ(row.pub, 1u);
  EXPECT_EQ(row.sub, 0u);
  EXPECT_EQ(row.deadline_us, 90000);
  EXPECT_DOUBLE_EQ(row.d_us, 30000.5);
  EXPECT_DOUBLE_EQ(row.r, 0.975);
  ASSERT_EQ(row.list.size(), 2u);
  EXPECT_DOUBLE_EQ(row.list[1].d_via_us, 45000.0);
  EXPECT_EQ(row.list[1].neighbor, NodeId(2));

  for (const char* bad : {
           "not json at all",
           "{\"t\":1,\"topic\":0,\"pub\":0,\"sub\":1}",  // missing d_us
           "{\"t\":1,\"topic\":0,\"pub\":0,\"sub\":1,\"deadline_us\":5,"
           "\"d_us\":oops,\"r\":1,\"list\":[]}",
           "{\"t\":1,\"topic\":0,\"pub\":0,\"sub\":1,\"deadline_us\":5,"
           "\"d_us\":2,\"r\":1,\"list\":[[1,2]]}",  // short tuple
       }) {
    EXPECT_FALSE(ParseModelRow(bad, &row, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ModelAuditTest, ForEachModelRowReportsTheFirstMalformedLine) {
  std::istringstream in(
      "{\"t\":1,\"topic\":0,\"pub\":0,\"sub\":1,\"deadline_us\":5,"
      "\"d_us\":2,\"r\":1,\"list\":[]}\n"
      "\n"
      "garbage line\n");
  std::size_t bad_line = 0;
  std::string bad_text;
  std::size_t seen = 0;
  EXPECT_FALSE(ForEachModelRow(
      in, [&](const ModelRow&) { ++seen; }, &bad_line, &bad_text));
  EXPECT_EQ(seen, 1u);  // the good row was delivered before the stop
  EXPECT_EQ(bad_line, 3u);
  EXPECT_NE(bad_text.find("garbage"), std::string::npos);
}

TEST(TraceExportTest, ForEachTraceJsonlStopsAtTheFirstMalformedLine) {
  std::istringstream in(
      "{\"t\":0,\"k\":\"publish\",\"pkt\":7,\"copy\":0,\"node\":1,"
      "\"peer\":-1,\"link\":-1,\"aux\":0,\"x\":3}\n"
      "\n"
      "{\"t\":5,\"k\":\"no-such-kind\",\"pkt\":7,\"copy\":0,\"node\":1,"
      "\"peer\":-1,\"link\":-1,\"aux\":0,\"x\":0}\n");
  std::size_t bad_line = 0;
  std::string bad_text;
  std::size_t seen = 0;
  EXPECT_FALSE(ForEachTraceJsonl(
      in, [&](const TraceRecord&) { ++seen; }, &bad_line, &bad_text));
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(bad_line, 3u);
  EXPECT_NE(bad_text.find("no-such-kind"), std::string::npos);
}

// Absorbing per-rep histogram snapshots must reproduce the whole-run
// distribution exactly — same buckets, therefore the same quantiles.
TEST(LogLinearHistogramTest, AbsorbedRepSnapshotsMatchWholeRunExactly) {
  LogLinearHistogram whole;
  LogLinearHistogram reps[4];
  std::uint64_t v = 9;
  for (int i = 0; i < 4000; ++i) {
    v = v * 1664525 + 1013904223;  // deterministic LCG spread
    const std::int64_t sample = static_cast<std::int64_t>(v % 5000000);
    whole.Record(sample);
    reps[i % 4].Record(sample);
  }

  LogLinearHistogram absorbed;
  for (const LogLinearHistogram& rep : reps) {
    absorbed.AbsorbSnapshot(rep.Snapshot());
  }

  EXPECT_EQ(absorbed.count(), whole.count());
  EXPECT_EQ(absorbed.sum(), whole.sum());
  EXPECT_EQ(absorbed.min(), whole.min());
  EXPECT_EQ(absorbed.max(), whole.max());
  for (int b = 0; b < LogLinearHistogram::kBucketCount; ++b) {
    ASSERT_EQ(absorbed.CountAt(b), whole.CountAt(b)) << "bucket " << b;
  }
  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(absorbed.ValueAtQuantile(q), whole.ValueAtQuantile(q)) << q;
  }
}

TEST(FlightRecorderTest, LossyPostmortemSaysSoAndCountsOverwrites) {
  Scheduler scheduler;
  FlightRecorder::Config small;
  small.ring_capacity = 8;
  FlightRecorder recorder(scheduler, small);
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.Record(TraceEventKind::kPublish, i, 0, NodeId(0), NodeId(),
                    LinkId());
  }
  EXPECT_EQ(recorder.overwritten(), 12u);

  std::ostringstream dump;
  recorder.DumpPostmortem(dump, 8, "test");
  EXPECT_NE(dump.str().find("LOSSY"), std::string::npos) << dump.str();
  EXPECT_NE(dump.str().find("12"), std::string::npos) << dump.str();
}

TEST(TraceIntegrationTest, OverwrittenCountSurfacesInTheRunSummary) {
  // Ring-only tracing with a tiny ring: the busy run must wrap, and the
  // summary must say by how much.
  ScenarioConfig config = ChaosCocktailConfig();
  config.trace = true;
  config.trace_ring_capacity = 64;
  const RunSummary summary = RunScenario(config);
  EXPECT_GT(summary.trace_records_overwritten, 0u);

  // With a sink attached nothing is ever lost.
  TempFile trace_file("analysis_sink.jsonl");
  ScenarioConfig sink_config = ChaosCocktailConfig();
  sink_config.trace_ring_capacity = 64;
  sink_config.trace_out = trace_file.path;
  const RunSummary sink_summary = RunScenario(sink_config);
  EXPECT_EQ(sink_summary.trace_records_overwritten, 0u);
}

}  // namespace
}  // namespace dcrd
