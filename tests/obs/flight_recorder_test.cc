// Flight recorder: ring wrap-around semantics, sink-mode lossless flushing,
// sim-time stamping, and the postmortem dump's framing/content.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace_export.h"

namespace dcrd {
namespace {

FlightRecorder::Config SmallRing(std::size_t capacity) {
  FlightRecorder::Config config;
  config.ring_capacity = capacity;
  return config;
}

TEST(FlightRecorderTest, DisabledByDefaultAndRecordsNothing) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(TraceEventKind::kPublish, 1, 0, NodeId(0), NodeId(),
                  LinkId());
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndCountsOverwritten) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing(4));
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.Record(TraceEventKind::kPublish, i, 0, NodeId(0), NodeId(),
                    LinkId());
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
  // at(0) is the oldest survivor: packets 6, 7, 8, 9 remain.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recorder.at(i).packet, 6u + i);
  }
}

TEST(FlightRecorderTest, SinkModeFlushesOnWrapWithoutLoss) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing(4));
  recorder.set_enabled(true);
  std::ostringstream sink;
  recorder.set_sink(&sink);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.Record(TraceEventKind::kHopSend, i, i + 100, NodeId(1),
                    NodeId(2), LinkId(3), 0, static_cast<std::uint16_t>(i));
  }
  recorder.Flush();  // drain the tail
  EXPECT_EQ(recorder.overwritten(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.size(), 0u);

  std::istringstream in(sink.str());
  std::size_t dropped = 0;
  const std::vector<TraceRecord> parsed = ReadTraceJsonl(in, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(parsed.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(parsed[i].packet, i);
    EXPECT_EQ(parsed[i].copy, i + 100);
    EXPECT_EQ(parsed[i].kind, TraceEventKind::kHopSend);
  }
}

TEST(FlightRecorderTest, RecordsStampTheSchedulerClock) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing(8));
  recorder.set_enabled(true);
  scheduler.ScheduleAt(SimTime::FromMicros(5000), [&recorder] {
    recorder.Record(TraceEventKind::kDeliver, 42, 0, NodeId(3), NodeId(0),
                    LinkId());
  });
  scheduler.Run();
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.at(0).t_us, 5000);
  EXPECT_EQ(recorder.at(0).packet, 42u);
}

TEST(FlightRecorderTest, PostmortemShowsNewestRecordsAndReason) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing(8));
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 8; ++i) {
    recorder.Record(TraceEventKind::kPublish, i, 0, NodeId(0), NodeId(),
                    LinkId());
  }
  std::ostringstream os;
  recorder.DumpPostmortem(os, /*last_n=*/3, "unit-test violation");
  const std::string dump = os.str();
  EXPECT_NE(dump.find("unit-test violation"), std::string::npos);
  // Only the newest three packets appear.
  EXPECT_NE(dump.find("m7"), std::string::npos);
  EXPECT_NE(dump.find("m6"), std::string::npos);
  EXPECT_NE(dump.find("m5"), std::string::npos);
  EXPECT_EQ(dump.find("m4 "), std::string::npos);
}

}  // namespace
}  // namespace dcrd
