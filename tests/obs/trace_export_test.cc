// Trace export: JSONL round trip (including lines from older captures),
// human rendering, and the Chrome trace_event document — including
// per-broker-track event structure, the begin/end pairing of copy
// lifetimes, and the telemetry counter tracks.
#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "obs/trace_record.h"

namespace dcrd {
namespace {

TraceRecord Make(TraceEventKind kind, std::int64_t t_us,
                 std::uint64_t packet, std::uint64_t copy, std::uint32_t node,
                 std::uint32_t peer, std::uint32_t link,
                 std::uint8_t aux8 = 0, std::uint16_t aux16 = 0) {
  TraceRecord record;
  record.t_us = t_us;
  record.packet = packet;
  record.copy = copy;
  record.node = node;
  record.peer = peer;
  record.link = link;
  record.kind = kind;
  record.aux8 = aux8;
  record.aux16 = aux16;
  return record;
}

TEST(TraceExportTest, JsonlRoundTripsEveryKindAndSentinel) {
  std::vector<TraceRecord> records;
  for (int k = 0; k < kTraceEventKindCount; ++k) {
    records.push_back(Make(static_cast<TraceEventKind>(k), 1000 + k,
                           /*packet=*/k % 3 == 0 ? TraceRecord::kNoPacket
                                                 : static_cast<std::uint64_t>(k),
                           /*copy=*/static_cast<std::uint64_t>(k) * 7,
                           /*node=*/k % 4 == 0 ? TraceRecord::kNoId
                                               : static_cast<std::uint32_t>(k),
                           /*peer=*/static_cast<std::uint32_t>(k + 1),
                           /*link=*/k % 5 == 0 ? TraceRecord::kNoId
                                               : static_cast<std::uint32_t>(k),
                           /*aux8=*/static_cast<std::uint8_t>(k),
                           /*aux16=*/static_cast<std::uint16_t>(k * 11)));
  }
  // Copy ids carry the sending broker in their top bits: a broker near 2^20
  // gives ids near 2^60, far past a double's 2^53 exact range.
  records.push_back(Make(TraceEventKind::kHopSend, 5, 3,
                         ((std::uint64_t{1} << 20) - 1) << 40 | 7, 1, 2, 4,
                         UINT8_MAX, UINT16_MAX));
  char buf[kMaxTraceLineBytes];
  for (const TraceRecord& record : records) {
    const int len = FormatTraceJsonl(record, buf, sizeof(buf));
    ASSERT_GT(len, 0);
    EXPECT_EQ(buf[len - 1], '\n');
    TraceRecord parsed;
    ASSERT_TRUE(ParseTraceJsonl(std::string_view(buf, len - 1), &parsed));
    EXPECT_EQ(parsed.t_us, record.t_us);
    EXPECT_EQ(parsed.packet, record.packet);
    EXPECT_EQ(parsed.copy, record.copy);
    EXPECT_EQ(parsed.node, record.node);
    EXPECT_EQ(parsed.peer, record.peer);
    EXPECT_EQ(parsed.link, record.link);
    EXPECT_EQ(parsed.kind, record.kind);
    EXPECT_EQ(parsed.aux8, record.aux8);
    EXPECT_EQ(parsed.aux16, record.aux16);
  }
}

TEST(TraceExportTest, ParseIgnoresSeqAndShardOnLegacyLines) {
  // Older captures stamped every line with "seq" and "shard"; such a line
  // parses to the same record as its current-format twin.
  TraceRecord legacy;
  ASSERT_TRUE(ParseTraceJsonl(
      "{\"t\":42,\"k\":\"publish\",\"pkt\":7,\"copy\":0,\"node\":2,"
      "\"peer\":-1,\"link\":-1,\"aux\":0,\"x\":3,\"seq\":7,\"shard\":3}",
      &legacy));
  EXPECT_EQ(legacy.t_us, 42);
  EXPECT_EQ(legacy.kind, TraceEventKind::kPublish);
  EXPECT_EQ(legacy.packet, 7u);
  EXPECT_EQ(legacy.node, 2u);
  EXPECT_EQ(legacy.peer, TraceRecord::kNoId);
  EXPECT_EQ(legacy.aux16, 3u);

  char buf[kMaxTraceLineBytes];
  const int len = FormatTraceJsonl(legacy, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(len)),
            "{\"t\":42,\"k\":\"publish\",\"pkt\":7,\"copy\":0,\"node\":2,"
            "\"peer\":-1,\"link\":-1,\"aux\":0,\"x\":3}\n");
}

TEST(TraceExportTest, ParseRejectsMalformedLines) {
  const std::string good =
      "{\"t\":1,\"k\":\"publish\",\"pkt\":1,\"copy\":0,\"node\":0,"
      "\"peer\":-1,\"link\":-1,\"aux\":0,\"x\":0}";
  TraceRecord out;
  ASSERT_TRUE(ParseTraceJsonl(good, &out));
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  // From `good + " x"` on, each was accepted before the parser became
  // strict: trailing text ignored, out-of-range values truncated or
  // wrapped.
  for (const std::string& bad :
       {std::string(), std::string("not json"), std::string("{\"t\":1}"),
        with("\"publish\"", "\"no-such-kind\""),
        with("\"t\":1", "\"t\":1.5"), good + " x",
        with("\"node\":0", "\"node\":5000000000"),
        with("\"aux\":0", "\"aux\":300"), with("\"x\":0", "\"x\":65536"),
        with("\"peer\":-1", "\"peer\":-2"),
        with("\"copy\":0", "\"copy\":-1")}) {
    std::string error;
    EXPECT_FALSE(ParseTraceJsonl(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(TraceExportTest, HumanLinesNameKindPacketAndEndpoints) {
  char buf[kMaxTraceLineBytes];
  FormatTraceHuman(Make(TraceEventKind::kHopSend, 150, 5, 17, 0, 3, 5), buf,
                   sizeof(buf));
  const std::string hop(buf);
  EXPECT_NE(hop.find("hop-send"), std::string::npos) << hop;
  EXPECT_NE(hop.find("m5"), std::string::npos) << hop;
  EXPECT_NE(hop.find("n0"), std::string::npos) << hop;
  EXPECT_NE(hop.find("n3"), std::string::npos) << hop;

  FormatTraceHuman(
      Make(TraceEventKind::kDrop, 150, 5, 17, 0, 3, 5,
           static_cast<std::uint8_t>(TraceDropReason::kLinkDown)),
      buf, sizeof(buf));
  const std::string drop(buf);
  EXPECT_NE(drop.find("drop"), std::string::npos) << drop;
  EXPECT_NE(drop.find("link-down"), std::string::npos) << drop;
}

// Minimal scanner for the Chrome trace document: pulls out (ph, ts, pid,
// tid, id) per event without a JSON library. Good enough to validate the
// structural claims the export makes.
struct ChromeEvent {
  char ph = '?';
  std::int64_t ts = -1;
  std::int64_t tid = -1;
  std::string id;
};

std::vector<ChromeEvent> ScanChrome(const std::string& json) {
  std::vector<ChromeEvent> events;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    ChromeEvent event;
    event.ph = json[pos + 6];
    const std::size_t obj_start = json.rfind('{', pos);
    const std::size_t obj_end = json.find('}', pos);
    const std::string obj = json.substr(obj_start, obj_end - obj_start);
    if (const auto ts = obj.find("\"ts\":"); ts != std::string::npos) {
      event.ts = std::stoll(obj.substr(ts + 5));
    }
    if (const auto tid = obj.find("\"tid\":"); tid != std::string::npos) {
      event.tid = std::stoll(obj.substr(tid + 6));
    }
    if (const auto id = obj.find("\"id\":\""); id != std::string::npos) {
      const std::size_t end = obj.find('"', id + 6);
      event.id = obj.substr(id + 6, end - (id + 6));
    }
    events.push_back(event);
    pos = obj_end;
  }
  return events;
}

TEST(TraceExportTest, ChromeTracePairsCopyLifetimesPerBrokerTrack) {
  // Copy 17 completes (send -> ack); copy 18 dies (send -> budget
  // exhausted); copy 19 is left open and must be closed at the last
  // timestamp. Deliver/publish become instants.
  std::vector<TraceRecord> records;
  records.push_back(Make(TraceEventKind::kPublish, 0, 5, 0, 0,
                         TraceRecord::kNoId, TraceRecord::kNoId));
  records.push_back(Make(TraceEventKind::kHopSend, 10, 5, 17, 0, 1, 2));
  records.push_back(Make(TraceEventKind::kHopSend, 20, 5, 18, 0, 3, 4));
  records.push_back(Make(TraceEventKind::kAck, 30, 5, 17, 0, 1, 2));
  records.push_back(
      Make(TraceEventKind::kBudgetExhausted, 40, 5, 18, 0, 3, 4));
  records.push_back(Make(TraceEventKind::kHopSend, 50, 5, 19, 1, 3, 7));
  records.push_back(Make(TraceEventKind::kDeliver, 60, 5, 0, 3,
                         TraceRecord::kNoId, TraceRecord::kNoId));

  std::ostringstream os;
  WriteChromeTrace(os, records);
  const std::string json = os.str();

  // Document shape: a traceEvents array plus broker thread metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("dcrd-sim"), std::string::npos);
  EXPECT_NE(json.find("broker n0"), std::string::npos);
  EXPECT_NE(json.find("broker n3"), std::string::npos);

  const std::vector<ChromeEvent> events = ScanChrome(json);
  std::map<std::string, std::vector<const ChromeEvent*>> by_id;
  std::int64_t last_ts = -1;
  int begins = 0;
  int ends = 0;
  int instants = 0;
  for (const ChromeEvent& event : events) {
    if (event.ph == 'b') ++begins;
    if (event.ph == 'e') ++ends;
    if (event.ph == 'i') ++instants;
    if (event.ph == 'b' || event.ph == 'e') {
      by_id[event.id].push_back(&event);
    }
    if (event.ph != 'M') {
      // The export sorts by timestamp; nesting in each track relies on it.
      EXPECT_GE(event.ts, last_ts);
      last_ts = event.ts;
    }
  }
  EXPECT_EQ(begins, 3);  // copies 17, 18, 19
  EXPECT_EQ(ends, 3);    // ack, exhaustion, and the close-at-end for 19
  EXPECT_EQ(instants, 2);  // publish + deliver
  for (const auto& [id, pair] : by_id) {
    ASSERT_EQ(pair.size(), 2u) << "copy " << id;
    EXPECT_EQ(pair[0]->ph, 'b') << "copy " << id;
    EXPECT_EQ(pair[1]->ph, 'e') << "copy " << id;
    EXPECT_LE(pair[0]->ts, pair[1]->ts) << "copy " << id;
  }
}

TEST(TraceExportTest, ForEachTraceJsonlReportsTheOffendingLineAcrossFormats) {
  // A current-format line, a legacy line carrying seq/shard, then garbage:
  // only the garbage is malformed, and the report names its line exactly.
  char buf[kMaxTraceLineBytes];
  const int len = FormatTraceJsonl(
      Make(TraceEventKind::kPublish, 0, 1, 0, 0, TraceRecord::kNoId,
           TraceRecord::kNoId),
      buf, sizeof(buf));
  std::istringstream in(
      std::string(buf, static_cast<std::size_t>(len)) +
      "{\"t\":9,\"k\":\"deliver\",\"pkt\":1,\"copy\":0,\"node\":4,"
      "\"peer\":0,\"link\":-1,\"aux\":0,\"x\":0,\"seq\":1,\"shard\":2}\n"
      "garbage\n");
  std::size_t seen = 0, bad_line = 0;
  std::string bad_text;
  EXPECT_FALSE(ForEachTraceJsonl(
      in, [&](const TraceRecord&) { ++seen; }, &bad_line, &bad_text));
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(bad_line, 3u);
  // The parser's reason, then the line itself.
  EXPECT_EQ(bad_text, "expected '{' at byte 0: garbage");
}

// --- Chrome telemetry tracks ------------------------------------------------

TEST(TraceExportTest, ChromeTraceAddsTelemetryCounterTracksFromTimeSeries) {
  std::vector<TraceRecord> records;
  records.push_back(Make(TraceEventKind::kPublish, 0, 5, 0, 0,
                         TraceRecord::kNoId, TraceRecord::kNoId));

  // Two samples of a store carrying the SLO counters, one gauge and two
  // brokers' health columns.
  TimeSeriesStore series;
  series.interval_us = 1000000;
  series.node_count = 2;
  series.t_us = {0, 1000000};
  series.counter_names = {"slo.pairs_published", "slo.pairs_delivered",
                          "slo.pairs_on_time"};
  series.counter_deltas = {{0, 10}, {0, 8}, {0, 6}};
  series.gauge_names = {"links.down"};
  series.gauge_values = {{0, 3}};
  series.broker_pending = {0, 0, 4, 5};
  series.broker_dedup = {0, 0, 1, 2};
  series.broker_rto_us = {0, 0, 700, 900};

  std::ostringstream os;
  WriteChromeTrace(os, records, &series);
  const std::string json = os.str();

  EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"dcrd-telemetry\"}}"),
            std::string::npos)
      << json;
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  // Per sample: 3 counter rates + 1 gauge + 3 broker aggregates; plus 3
  // SLO series over the one window.
  EXPECT_EQ(count("\"ph\":\"C\",\"pid\":2,"), 2u * 7u + 3u);
  EXPECT_NE(json.find("\"name\":\"slo.pairs_delivered/win\",\"ts\":1000000,"
                      "\"args\":{\"value\":8}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"links.down\",\"ts\":1000000,"
                      "\"args\":{\"value\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"broker.pending_copies\",\"ts\":1000000,"
                      "\"args\":{\"value\":9}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"broker.rto_us.max\",\"ts\":1000000,"
                      "\"args\":{\"value\":900}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slo.delivery_ratio\",\"ts\":1000000,"
                      "\"args\":{\"value\":0.800000}"),
            std::string::npos);

  // Without a store, no telemetry process appears.
  std::ostringstream plain;
  WriteChromeTrace(plain, records);
  EXPECT_EQ(plain.str().find("dcrd-telemetry"), std::string::npos);
}

TEST(TraceExportTest, PacketTimelineFiltersAndOrders) {
  std::vector<TraceRecord> records;
  records.push_back(Make(TraceEventKind::kDeliver, 50, 9, 0, 3,
                         TraceRecord::kNoId, TraceRecord::kNoId));
  records.push_back(Make(TraceEventKind::kPublish, 0, 9, 0, 0,
                         TraceRecord::kNoId, TraceRecord::kNoId));
  records.push_back(Make(TraceEventKind::kPublish, 10, 8, 0, 1,
                         TraceRecord::kNoId, TraceRecord::kNoId));
  std::ostringstream os;
  EXPECT_EQ(PrintPacketTimeline(os, records, 9), 2u);
  const std::string out = os.str();
  const std::size_t publish_at = out.find("publish");
  const std::size_t deliver_at = out.find("deliver");
  ASSERT_NE(publish_at, std::string::npos);
  ASSERT_NE(deliver_at, std::string::npos);
  EXPECT_LT(publish_at, deliver_at);
  EXPECT_EQ(out.find("m8"), std::string::npos);
}

}  // namespace
}  // namespace dcrd
