// Microbenchmark: flight-recorder overhead on instrumented hot paths.
//
// The recorder's contract is near-zero cost when tracing is off and
// allocation-free when it is on. Off means no recorder: the engine builds
// one only when tracing, and every instrumentation site tests its recorder
// pointer first. These benches measure all three states of the record
// call — absent (baseline loop), disabled (a null recorder behind the
// call site's check), enabled — plus the JSONL emission path and the
// histogram record, so BENCH_trace_overhead.json tracks the
// disabled/enabled ratio over time.
#include <benchmark/benchmark.h>

#include <ostream>
#include <streambuf>

#include "event/scheduler.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace {

using dcrd::FlightRecorder;
using dcrd::LinkId;
using dcrd::LogLinearHistogram;
using dcrd::NodeId;
using dcrd::Scheduler;
using dcrd::TraceEventKind;

class NullStreambuf final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

// Baseline: the surrounding loop with no recorder call at all. The
// disabled-recorder bench below must land within noise of this.
void BM_RecordAbsent(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordAbsent);

// What an instrumented site costs in an untraced run: the null-pointer
// test in front of the call. The pointer goes through DoNotOptimize every
// iteration, so the compiler can neither fold the test away nor hoist it
// out of the loop.
void BM_RecordDisabled(benchmark::State& state) {
  FlightRecorder* recorder = nullptr;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder);
    if (recorder != nullptr) {
      recorder->Record(TraceEventKind::kHopSend, i, i, NodeId(0), NodeId(1),
                       LinkId(0));
    }
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordDisabled);

void BM_RecordEnabledRingOnly(benchmark::State& state) {
  Scheduler scheduler;
  FlightRecorder recorder(scheduler);
  std::uint64_t i = 0;
  for (auto _ : state) {
    recorder.Record(TraceEventKind::kHopSend, i, i, NodeId(0), NodeId(1),
                    LinkId(0));
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEnabledRingOnly);

void BM_RecordEnabledWithSink(benchmark::State& state) {
  // Full-trace mode: ring fills and flushes as JSONL into a discarding
  // stream, so the snprintf emission cost is included.
  Scheduler scheduler;
  FlightRecorder recorder(scheduler);
  NullStreambuf devnull;
  std::ostream sink(&devnull);
  recorder.set_sink(&sink);
  std::uint64_t i = 0;
  for (auto _ : state) {
    recorder.Record(TraceEventKind::kAck, i, i, NodeId(0), NodeId(1),
                    LinkId(0));
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEnabledWithSink);

void BM_HistogramRecord(benchmark::State& state) {
  LogLinearHistogram histogram;
  std::int64_t v = 0;
  for (auto _ : state) {
    histogram.Record(v);
    v += 12347;
    benchmark::DoNotOptimize(histogram.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
