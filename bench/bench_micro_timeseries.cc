// Microbenchmark: continuous-telemetry sampler cost (obs/timeseries.h).
//
// A run without --timeseries pays one untaken null-check branch at setup —
// nothing per event — and the enabled path is one scheduler event per
// interval doing pure column writes into pre-reserved storage. These
// benches pin the costs that matter: the per-sample snapshot against a
// registry of production shape (the 1920-bucket histogram diff dominates)
// and the JSON serialisation, so the perf gate tracks them over time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include "event/scheduler.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"

namespace {

using dcrd::BrokerHealth;
using dcrd::LogLinearHistogram;
using dcrd::MetricsRegistry;
using dcrd::Scheduler;
using dcrd::SimDuration;
using dcrd::SimTime;
using dcrd::TimeSeriesConfig;
using dcrd::TimeSeriesSampler;

class NullStreambuf final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

// A registry of roughly the engine's shape: ~25 counters, 4 gauges, two
// histograms with samples spread across bucket groups.
struct EngineShapedRegistry {
  MetricsRegistry registry;
  std::vector<std::uint64_t*> counters;
  LogLinearHistogram* delay;
  LogLinearHistogram* rtt;
  std::uint64_t level = 0;

  EngineShapedRegistry() {
    counters.reserve(25);
    for (int i = 0; i < 25; ++i) {
      counters.push_back(
          registry.AddCounter("bench.counter" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      registry.RegisterGauge("bench.gauge" + std::to_string(i),
                             [this] { return level; });
    }
    delay = registry.AddHistogram("delivery.delay_us");
    rtt = registry.AddHistogram("bench.rtt_us");
  }

  void Mutate(std::uint64_t& lcg) {
    for (std::uint64_t* c : counters) {
      lcg = lcg * 1664525 + 1013904223;
      *c += lcg & 15;
    }
    level = lcg % 32;
    for (int i = 0; i < 16; ++i) {
      lcg = lcg * 1664525 + 1013904223;
      delay->Record(static_cast<std::int64_t>(lcg % 10000000));
      rtt->Record(static_cast<std::int64_t>(lcg % 100000));
    }
  }
};

TimeSeriesConfig ConfigFor(int samples, std::size_t node_count) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Seconds(1);
  // The sample budget (and with it every up-front reservation) is
  // end / interval + slack, so keep `end` proportional to what we drive.
  config.end = SimTime::FromMicros(static_cast<std::int64_t>(samples) *
                                   1'000'000);
  config.node_count = node_count;
  return config;
}

// Per-sample cost with a dirty registry: 25 counter diffs, 4 gauge reads,
// two full 1920-bucket histogram diffs, and 64 broker-health rows. This is
// the entire per-interval price of --timeseries. The store's budget is
// finite, so the sampler is rebuilt (outside the timed region) every 4096
// samples — amortised noise, not measurement.
void BM_TimeSeriesSample(benchmark::State& state) {
  constexpr int kBudget = 4096;
  EngineShapedRegistry rig;
  Scheduler scheduler;
  const auto health = [](std::vector<BrokerHealth>& out) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b].pending_copies = b;
    }
  };
  auto sampler = std::make_unique<TimeSeriesSampler>(
      rig.registry, scheduler, ConfigFor(kBudget, 64), health);
  std::uint64_t lcg = 99;
  for (auto _ : state) {
    if (sampler->store().samples() >= kBudget) {
      state.PauseTiming();
      sampler = std::make_unique<TimeSeriesSampler>(
          rig.registry, scheduler, ConfigFor(kBudget, 64), health);
      state.ResumeTiming();
    }
    rig.Mutate(lcg);
    sampler->SampleNow();
    benchmark::DoNotOptimize(sampler->store().t_us.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesSample);

std::unique_ptr<TimeSeriesSampler> DrivenSampler(EngineShapedRegistry& rig,
                                                 Scheduler& scheduler,
                                                 int samples) {
  auto sampler = std::make_unique<TimeSeriesSampler>(
      rig.registry, scheduler, ConfigFor(samples, 64), nullptr);
  std::uint64_t lcg = 3;
  for (int s = 1; s < samples; ++s) {
    rig.Mutate(lcg);
    sampler->SampleNow();
  }
  return sampler;
}

// Serialisation cost for a 300-sample store, SLO series included.
void BM_TimeSeriesWriteJson(benchmark::State& state) {
  EngineShapedRegistry rig;
  Scheduler scheduler;
  const auto sampler = DrivenSampler(rig, scheduler, 300);
  NullStreambuf devnull;
  std::ostream sink(&devnull);
  for (auto _ : state) {
    dcrd::WriteTimeSeriesJson(sink, sampler->store());
    benchmark::DoNotOptimize(sink.rdstate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesWriteJson);

}  // namespace
