// Regression tests for the flight recorder's zero-steady-state-allocation
// property. With tracing enabled, the record path is an assignment into the
// preallocated ring, and the sink flush path formats into a stack buffer —
// neither may touch the heap, even across ring wraps. The sink writes into
// a fixed discarding streambuf so stream growth cannot mask (or cause) an
// allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <streambuf>

#include "event/scheduler.h"
#include "graph/topology.h"
#include "net/overlay_network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "routing/hop_transport.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

// Discards everything written to it without buffering or allocating.
class NullStreambuf final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

FlightRecorder::Config SmallRing() {
  FlightRecorder::Config config;
  config.ring_capacity = 512;
  return config;
}

TEST(TraceAllocTest, RecordAndRingWrapAreAllocationFree) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing());

  AllocProbe probe;
  // 16x the ring capacity: wraps the ring many times over.
  for (std::uint64_t i = 0; i < 512 * 16; ++i) {
    recorder.Record(TraceEventKind::kHopSend, i, i, NodeId(0), NodeId(1),
                    LinkId(0), 0, static_cast<std::uint16_t>(i));
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "ring recording allocated " << delta.bytes << " bytes";
  EXPECT_EQ(recorder.total_recorded(), 512u * 16u);
}

TEST(TraceAllocTest, SinkFlushPathIsAllocationFree) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler, SmallRing());
  NullStreambuf devnull;
  std::ostream sink(&devnull);
  recorder.set_sink(&sink);

  AllocProbe probe;
  for (std::uint64_t i = 0; i < 512 * 16; ++i) {
    recorder.Record(TraceEventKind::kAck, i, i, NodeId(2), NodeId(3),
                    LinkId(1));
  }
  recorder.Flush();
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "sink flush allocated " << delta.bytes << " bytes";
  EXPECT_EQ(recorder.overwritten(), 0u);
}

TEST(TraceAllocTest, HistogramRecordIsAllocationFree) {
  LogLinearHistogram histogram;
  AllocProbe probe;
  for (std::int64_t v = 0; v < 100000; ++v) {
    histogram.Record(v * 37);
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u);
  EXPECT_EQ(histogram.count(), 100000u);
}

// The full instrumented transport round trip — enqueue/hop-send/ack records
// plus the RTT histogram — on top of the transport's own zero-alloc
// guarantee. Mirrors hop_transport_alloc_test's fixture.
TEST(TraceAllocTest, TracedTransportRoundTripIsAllocationFreeAfterWarmup) {
  Graph graph = Line(2, SimDuration::Millis(10));
  Scheduler scheduler;
  const LinkId link = *graph.FindEdge(NodeId(0), NodeId(1));
  OverlayNetwork network(graph, scheduler, FailureSchedule(1, 0.0), 0.0,
                         Rng(1));

  FlightRecorder recorder(scheduler, SmallRing());
  NullStreambuf devnull;
  std::ostream sink(&devnull);
  recorder.set_sink(&sink);
  LogLinearHistogram rtt;
  network.set_flight_recorder(&recorder);

  HopTransportConfig config;
  config.recorder = &recorder;
  config.rtt_histogram = &rtt;
  HopTransport transport(network, [](NodeId, const Packet&, NodeId) {},
                         config);

  std::uint64_t id = 0;
  std::uint64_t acks = 0;
  const auto run_round = [&] {
    for (int i = 0; i < 64; ++i) {
      Message message;
      message.id = MessageId(++id);
      message.topic = TopicId(0);
      message.publisher = NodeId(0);
      message.publish_time = SimTime::Zero();
      transport.SendReliable(NodeId(0), link, Packet(message, {}), 1,
                             SimDuration::Millis(25),
                             [&acks](bool ok) { acks += ok ? 1 : 0; });
    }
    scheduler.Run();
    transport.ClearDedupState();
  };
  for (int round = 0; round < 3; ++round) run_round();

  AllocProbe probe;
  for (int round = 0; round < 50; ++round) run_round();
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "traced round trip allocated " << delta.bytes << " bytes";
  EXPECT_EQ(acks, 64u * 53u);
  EXPECT_GT(rtt.count(), 0u);
}

}  // namespace
}  // namespace dcrd
