// Regression test for the time-series sampler's zero-steady-state-
// allocation property (DESIGN.md §12). Construction reserves every column
// against the sample budget; after that, each SampleNow() — counter deltas,
// gauge reads, histogram bucket diffs, broker health — must run without
// touching the heap allocator, or enabling --timeseries would perturb the
// allocator state figure runs are benchmarked under.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "event/scheduler.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

TEST(TimeSeriesAllocTest, SamplingIsAllocationFreeAfterConstruction) {
  MetricsRegistry registry;
  std::uint64_t* work = registry.AddCounter("test.work");
  std::uint64_t level = 0;
  registry.RegisterGauge("test.level", [&level] { return level; });
  LogLinearHistogram* delay = registry.AddHistogram("test.delay_us");

  Scheduler scheduler;
  TimeSeriesConfig config;
  config.interval = SimDuration::Seconds(1);
  config.end = SimTime::FromMicros(300 * 1000000LL);
  config.node_count = 64;
  std::vector<BrokerHealth> health_model(64);
  // Construction takes the baseline sample and reserves the full budget.
  TimeSeriesSampler sampler(
      registry, scheduler, config,
      [&health_model](std::vector<BrokerHealth>& out) {
        out = health_model;  // same size: copies in place, no allocation
      });

  // Warm-up: the chain schedules its next event while the current wheel
  // node is still in flight, so the node pool grows to two on the first
  // firing — a one-time cost, like the scheduler tests' warm-up rounds.
  scheduler.RunUntil(SimTime::FromMicros(2 * 1000000LL));

  // Steady state: mutate every metric kind between samples, spreading
  // histogram values across bucket groups so the delta pool keeps filling.
  AllocProbe probe;
  std::uint64_t lcg = 7;
  for (int s = 3; s <= 200; ++s) {
    lcg = lcg * 1664525 + 1013904223;
    *work += lcg & 1023;
    level = lcg % 17;
    for (int i = 0; i < 8; ++i) {
      lcg = lcg * 1664525 + 1013904223;
      delay->Record(static_cast<std::int64_t>(lcg % 10000000));
    }
    health_model[lcg % 64].pending_copies = s;
    scheduler.RunUntil(SimTime::FromMicros(s * 1000000LL));
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "198 sampling rounds allocated " << delta.bytes << " bytes";
  EXPECT_EQ(sampler.store().samples(), 201u);
}

}  // namespace
}  // namespace dcrd
