// Continuous telemetry: delta-sum conservation against the live registry,
// window alignment at epoch edges, the closed-form deadline-SLO math, and
// the JSON round trip (including documents from older writers).
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "event/scheduler.h"
#include "obs/metrics_registry.h"

namespace dcrd {
namespace {

// Drives a sampler chain across `end` seconds of sim time, mutating the
// registry between samples via `mutate(window)` events placed mid-window.
struct SamplerRig {
  MetricsRegistry registry;
  Scheduler scheduler;

  TimeSeriesSampler MakeSampler(SimTime end,
                                SimDuration interval = SimDuration::Seconds(1),
                                std::size_t node_count = 0,
                                TimeSeriesSampler::BrokerHealthSource health =
                                    nullptr) {
    TimeSeriesConfig config;
    config.interval = interval;
    config.end = end;
    config.node_count = node_count;
    return TimeSeriesSampler(registry, scheduler, config, std::move(health));
  }
};

TEST(TimeSeriesSamplerTest, DeltaSumsConserveToRegistryTotals) {
  SamplerRig rig;
  std::uint64_t* work = rig.registry.AddCounter("test.work");
  std::uint64_t external = 0;
  rig.registry.RegisterCounter("test.external", &external);
  LogLinearHistogram* delay = rig.registry.AddHistogram("test.delay_us");

  TimeSeriesSampler sampler = rig.MakeSampler(SimTime::FromMicros(10000000));
  // A deterministic but uneven workload: bursts land in some windows, and
  // the recorded values cross bucket-group boundaries (values >> 32).
  std::uint64_t lcg = 12345;
  for (int w = 0; w < 10; ++w) {
    rig.scheduler.ScheduleAt(
        SimTime::FromMicros(w * 1000000 + 137), [&, w] {
          for (int i = 0; i <= w * 3; ++i) {
            lcg = lcg * 1664525 + 1013904223;
            *work += 1 + (lcg & 7);
            external += w;
            delay->Record(static_cast<std::int64_t>(lcg % 1000000));
          }
        });
  }
  rig.scheduler.Run();
  ASSERT_EQ(sampler.store().samples(), 11u);  // t = 0s .. 10s

  const TimeSeriesStore& store = sampler.store();
  std::uint64_t work_sum = 0;
  std::uint64_t external_sum = 0;
  for (std::size_t s = 0; s < store.samples(); ++s) {
    work_sum += store.counter_deltas[0][s];
    external_sum += store.counter_deltas[1][s];
  }
  EXPECT_EQ(work_sum, *work);
  EXPECT_EQ(external_sum, external);

  // Histogram deltas conserve per bucket, not just in aggregate.
  const TimeSeriesStore::HistogramDeltas& hd = store.histogram_deltas[0];
  std::uint64_t count_sum = 0;
  std::uint64_t sum_sum = 0;
  std::vector<std::uint64_t> by_bucket(LogLinearHistogram::kBucketCount, 0);
  for (std::size_t s = 0; s < store.samples(); ++s) {
    count_sum += hd.count_delta[s];
    sum_sum += hd.sum_delta[s];
  }
  for (std::size_t i = 0; i < hd.bucket.size(); ++i) {
    by_bucket[hd.bucket[i]] += hd.count[i];
  }
  EXPECT_EQ(count_sum, delay->count());
  EXPECT_EQ(sum_sum, delay->sum());
  for (int b = 0; b < LogLinearHistogram::kBucketCount; ++b) {
    EXPECT_EQ(by_bucket[static_cast<std::size_t>(b)], delay->CountAt(b))
        << "bucket " << b;
  }
}

TEST(TimeSeriesSamplerTest, WindowsAlignToEpochEdges) {
  SamplerRig rig;
  std::uint64_t* hits = rig.registry.AddCounter("test.hits");
  TimeSeriesSampler sampler = rig.MakeSampler(SimTime::FromMicros(3000000));

  // One increment per window interior, plus one in the post-`end` tail.
  for (const std::int64_t t_us :
       {std::int64_t{400000}, std::int64_t{1600000}, std::int64_t{2999999},
        std::int64_t{3400000}}) {
    rig.scheduler.ScheduleAt(SimTime::FromMicros(t_us), [&] { *hits += 1; });
  }
  rig.scheduler.Run();
  sampler.FinalizeAt(rig.scheduler.now());

  const TimeSeriesStore& store = sampler.store();
  ASSERT_EQ(store.samples(), 5u);
  EXPECT_EQ(store.t_us[0], 0);
  EXPECT_EQ(store.t_us[1], 1000000);
  EXPECT_EQ(store.t_us[2], 2000000);
  EXPECT_EQ(store.t_us[3], 3000000);
  EXPECT_EQ(store.t_us[4], 3400000);  // quiescence tail, not interval-aligned
  // Window s covers (t[s-1], t[s]]: the baseline window is empty, each
  // interior increment lands in exactly one window, 2999999us in window 3.
  EXPECT_EQ(store.counter_deltas[0][0], 0u);
  EXPECT_EQ(store.counter_deltas[0][1], 1u);
  EXPECT_EQ(store.counter_deltas[0][2], 1u);
  EXPECT_EQ(store.counter_deltas[0][3], 1u);
  EXPECT_EQ(store.counter_deltas[0][4], 1u);

  // FinalizeAt at the exact last sample time is a no-op, not a new row.
  sampler.FinalizeAt(rig.scheduler.now());
  EXPECT_EQ(sampler.store().samples(), 5u);
}

TEST(TimeSeriesSamplerTest, GaugesSampleLevelsNotDeltas) {
  SamplerRig rig;
  std::uint64_t level = 5;
  rig.registry.RegisterGauge("test.level", [&level] { return level; });
  TimeSeriesSampler sampler = rig.MakeSampler(SimTime::FromMicros(2000000));
  rig.scheduler.ScheduleAt(SimTime::FromMicros(500000), [&] { level = 9; });
  rig.scheduler.ScheduleAt(SimTime::FromMicros(1500000), [&] { level = 2; });
  rig.scheduler.Run();
  const TimeSeriesStore& store = sampler.store();
  ASSERT_EQ(store.samples(), 3u);
  EXPECT_EQ(store.gauge_values[0][0], 5u);
  EXPECT_EQ(store.gauge_values[0][1], 9u);
  EXPECT_EQ(store.gauge_values[0][2], 2u);
}

TEST(TimeSeriesSamplerTest, BrokerHealthColumnsAreSampleMajor) {
  SamplerRig rig;
  std::uint64_t tick = 0;
  TimeSeriesSampler sampler = rig.MakeSampler(
      SimTime::FromMicros(1000000), SimDuration::Seconds(1), /*node_count=*/3,
      [&tick](std::vector<BrokerHealth>& out) {
        for (std::size_t b = 0; b < out.size(); ++b) {
          out[b].pending_copies = tick * 10 + b;
          out[b].dedup_entries = b;
          out[b].rto_us = 100 + tick;
        }
        ++tick;
      });
  rig.scheduler.Run();
  const TimeSeriesStore& store = sampler.store();
  ASSERT_EQ(store.samples(), 2u);
  ASSERT_EQ(store.broker_pending.size(), 6u);
  EXPECT_EQ(store.broker_pending[0 * 3 + 2], 2u);    // sample 0, broker 2
  EXPECT_EQ(store.broker_pending[1 * 3 + 1], 11u);   // sample 1, broker 1
  EXPECT_EQ(store.broker_rto_us[1 * 3 + 0], 101u);
}

// The closed-form scenario from the SLO definition: a 3-broker fan-out
// publishes 10 messages to 2 subscribers (20 pairs) in window 1; 16 pairs
// arrive, 12 of them on time, with delays 1..16us. Window 2 is idle.
TEST(SloSeriesTest, ClosedFormWindowMath) {
  SamplerRig rig;
  std::uint64_t published = 0;
  std::uint64_t pairs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t on_time = 0;
  rig.registry.RegisterCounter("slo.messages_published", &published);
  rig.registry.RegisterCounter("slo.pairs_published", &pairs);
  rig.registry.RegisterCounter("slo.pairs_delivered", &delivered);
  rig.registry.RegisterCounter("slo.pairs_on_time", &on_time);
  LogLinearHistogram* delay = rig.registry.AddHistogram("delivery.delay_us");

  TimeSeriesSampler sampler = rig.MakeSampler(SimTime::FromMicros(2000000));
  rig.scheduler.ScheduleAt(SimTime::FromMicros(250000), [&] {
    published = 10;
    pairs = 20;
    delivered = 16;
    on_time = 12;
    for (std::int64_t d = 1; d <= 16; ++d) delay->Record(d);
  });
  rig.scheduler.Run();

  const std::vector<SloWindow> slo = ComputeSloSeries(sampler.store());
  ASSERT_EQ(slo.size(), 2u);
  EXPECT_EQ(slo[0].t_us, 1000000);
  EXPECT_EQ(slo[0].published, 20u);
  EXPECT_EQ(slo[0].delivered, 16u);
  EXPECT_EQ(slo[0].on_time, 12u);
  EXPECT_DOUBLE_EQ(slo[0].delivery_ratio, 16.0 / 20.0);
  EXPECT_DOUBLE_EQ(slo[0].violation_rate, 4.0 / 16.0);
  // Delays 1..16 sit in exact unit buckets: nearest-rank quantiles.
  EXPECT_EQ(slo[0].delay_p50_us, 8u);
  EXPECT_EQ(slo[0].delay_p99_us, 16u);

  // Idle window: ratio degrades to the no-traffic convention.
  EXPECT_EQ(slo[1].published, 0u);
  EXPECT_DOUBLE_EQ(slo[1].delivery_ratio, 1.0);
  EXPECT_DOUBLE_EQ(slo[1].violation_rate, 0.0);
  EXPECT_EQ(slo[1].delay_p99_us, 0u);
}

TEST(SloSeriesTest, EmptyWithoutSloCounters) {
  SamplerRig rig;
  rig.registry.AddCounter("test.other");
  TimeSeriesSampler sampler = rig.MakeSampler(SimTime::FromMicros(1000000));
  rig.scheduler.Run();
  EXPECT_TRUE(ComputeSloSeries(sampler.store()).empty());
}

// Builds a store via a driven sampler so serialization tests work on
// realistic content (non-empty histogram pool, broker columns, slo series).
TimeSeriesStore BuildStore() {
  SamplerRig rig;
  std::uint64_t delivered = 0;
  std::uint64_t pairs = 0;
  rig.registry.RegisterCounter("slo.pairs_published", &pairs);
  rig.registry.RegisterCounter("slo.pairs_delivered", &delivered);
  rig.registry.RegisterCounter("slo.pairs_on_time", &delivered);
  std::uint64_t level = 0;
  rig.registry.RegisterGauge("test.level", [&level] { return level; });
  LogLinearHistogram* delay = rig.registry.AddHistogram("delivery.delay_us");
  TimeSeriesSampler sampler = rig.MakeSampler(
      SimTime::FromMicros(3000000), SimDuration::Seconds(1), /*node_count=*/2,
      [&delivered](std::vector<BrokerHealth>& out) {
        out[0].pending_copies = delivered;
        out[1].dedup_entries = 7;
      });
  for (int w = 0; w < 3; ++w) {
    rig.scheduler.ScheduleAt(SimTime::FromMicros(w * 1000000 + 1), [&, w] {
      pairs += 5;
      delivered += 4;
      level = static_cast<std::uint64_t>(w);
      delay->Record(100 * (w + 1));
      delay->Record(100000 * (w + 1));
    });
  }
  rig.scheduler.Run();
  sampler.FinalizeAt(SimTime::FromMicros(3500000));
  return sampler.store();
}

TEST(TimeSeriesJsonTest, RoundTripIsByteIdentical) {
  const TimeSeriesStore store = BuildStore();
  std::ostringstream first;
  WriteTimeSeriesJson(first, store);

  TimeSeriesStore loaded;
  std::string error;
  ASSERT_TRUE(LoadTimeSeriesJson(first.str(), &loaded, &error)) << error;
  EXPECT_EQ(loaded.samples(), store.samples());
  EXPECT_EQ(loaded.counter_names, store.counter_names);
  EXPECT_EQ(loaded.node_count, store.node_count);

  std::ostringstream second;
  WriteTimeSeriesJson(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(TimeSeriesJsonTest, RejectsWrongSchema) {
  TimeSeriesStore store;
  std::string error;
  EXPECT_FALSE(LoadTimeSeriesJson("{\"schema\": \"bogus\"}", &store, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TimeSeriesJsonTest, RejectsTrailingTextAndInexactIntegers) {
  std::ostringstream os;
  WriteTimeSeriesJson(os, BuildStore());
  const std::string good = os.str();
  TimeSeriesStore loaded;
  std::string error;
  ASSERT_TRUE(LoadTimeSeriesJson(good, &loaded, &error)) << error;

  EXPECT_FALSE(LoadTimeSeriesJson(good + "{}", &loaded, &error));
  EXPECT_NE(error.find("trailing text"), std::string::npos) << error;

  // A fraction on an integer field used to be truncated silently.
  std::string fraction = good;
  fraction.insert(fraction.find(',', fraction.find("\"node_count\":")), ".5");
  error.clear();
  EXPECT_FALSE(LoadTimeSeriesJson(fraction, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

// Documents written before the per-series "policy" tag was dropped carry
// one on every counter and gauge. They must still load, and re-export as
// the current format.
TEST(TimeSeriesJsonTest, LoadsSeriesCarryingLegacyPolicyTags) {
  const TimeSeriesStore store = BuildStore();
  std::ostringstream current;
  WriteTimeSeriesJson(current, store);

  // Re-insert the legacy tag in front of every series' value array.
  std::string legacy = current.str();
  int tagged = 0;
  const std::pair<std::string, std::string> tags[] = {
      {"{\"deltas\":", "\"policy\":\"replicated\","},
      {"{\"values\":", "\"policy\":\"sum\","}};
  for (const auto& [key, policy] : tags) {
    for (std::size_t pos = legacy.find(key); pos != std::string::npos;
         pos = legacy.find(key, pos + policy.size() + key.size())) {
      legacy.insert(pos + 1, policy);
      ++tagged;
    }
  }
  ASSERT_EQ(tagged, 4);  // three counters and one gauge
  ASSERT_NE(legacy.find("\"policy\":\"replicated\""), std::string::npos);

  TimeSeriesStore loaded;
  std::string error;
  ASSERT_TRUE(LoadTimeSeriesJson(legacy, &loaded, &error)) << error;
  EXPECT_EQ(loaded.counter_names, store.counter_names);
  EXPECT_EQ(loaded.counter_deltas, store.counter_deltas);
  EXPECT_EQ(loaded.gauge_values, store.gauge_values);
  std::ostringstream rewritten;
  WriteTimeSeriesJson(rewritten, loaded);
  EXPECT_EQ(rewritten.str(), current.str());
}

TEST(TimeSeriesPrintTest, RendersShapeAndSloTable) {
  const TimeSeriesStore store = BuildStore();
  std::ostringstream os;
  PrintTimeSeries(os, store);
  const std::string out = os.str();
  EXPECT_NE(out.find("time series:"), std::string::npos) << out;
  EXPECT_NE(out.find("slo.pairs_delivered"), std::string::npos) << out;
  EXPECT_NE(out.find("SLO windows"), std::string::npos) << out;
}

}  // namespace
}  // namespace dcrd
