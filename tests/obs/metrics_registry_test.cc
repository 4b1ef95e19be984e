// Metrics registry: log-linear histogram bucket math and quantiles (pinned
// against sim/stats.h's scalar Quantile), counters, gauges, and the JSON
// export with its string escaping.
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_util.h"
#include "sim/stats.h"

namespace dcrd {
namespace {

TEST(LogLinearHistogramTest, BucketIndexIsExactBelow32) {
  for (std::uint64_t v = 0; v < 32; ++v) {
    const int index = LogLinearHistogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<int>(v));
    EXPECT_EQ(LogLinearHistogram::BucketLo(index), v);
    EXPECT_EQ(LogLinearHistogram::BucketHi(index), v);
  }
}

TEST(LogLinearHistogramTest, BucketBoundsContainTheValue) {
  const std::uint64_t samples[] = {32,     33,    63,     64,        100,
                                  1023,   1024,  999999, 1u << 20,  (1u << 20) + 1,
                                  std::uint64_t{1} << 40};
  for (const std::uint64_t v : samples) {
    const int index = LogLinearHistogram::BucketIndex(v);
    EXPECT_GE(v, LogLinearHistogram::BucketLo(index)) << v;
    EXPECT_LE(v, LogLinearHistogram::BucketHi(index)) << v;
  }
}

TEST(LogLinearHistogramTest, RelativeBucketWidthIsAtMostOneThirtySecond) {
  for (const std::uint64_t v :
       {std::uint64_t{32}, std::uint64_t{1000}, std::uint64_t{123456789},
        std::uint64_t{1} << 50}) {
    const int index = LogLinearHistogram::BucketIndex(v);
    const std::uint64_t lo = LogLinearHistogram::BucketLo(index);
    const std::uint64_t hi = LogLinearHistogram::BucketHi(index);
    EXPECT_LE(hi - lo + 1, lo / 32 + 1) << v;
  }
}

TEST(LogLinearHistogramTest, TracksCountSumMinMax) {
  LogLinearHistogram h;
  h.Record(5);
  h.Record(10);
  h.Record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 18u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 10u);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(LogLinearHistogramTest, NegativeValuesClampToZero) {
  LogLinearHistogram h;
  h.Record(-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.CountAt(0), 1u);
}

TEST(LogLinearHistogramTest, QuantilesExactForSmallValues) {
  // Values < 32 land in exact unit buckets, so quantiles must be exact.
  LogLinearHistogram h;
  for (int v = 1; v <= 20; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 10u);
  EXPECT_EQ(h.ValueAtQuantile(0.95), 19u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 20u);
}

TEST(LogLinearHistogramTest, QuantilesAgreeWithScalarQuantile) {
  // Same nearest-rank rule as stats.cc's Quantile; on wide buckets the
  // histogram may err by at most half a bucket width (~1.6% relative).
  LogLinearHistogram h;
  std::vector<double> scalar;
  std::uint64_t v = 3;
  for (int i = 0; i < 1000; ++i) {
    v = v * 1664525 + 1013904223;  // deterministic LCG spread
    const std::uint64_t sample = v % 1000000;
    h.Record(static_cast<std::int64_t>(sample));
    scalar.push_back(static_cast<double>(sample));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = Quantile(scalar, q);
    const double approx = static_cast<double>(h.ValueAtQuantile(q));
    EXPECT_NEAR(approx, exact, exact / 32.0 + 1.0) << "q=" << q;
  }
}

TEST(LogLinearHistogramTest, SingleSampleReportsItselfAtEveryQuantile) {
  LogLinearHistogram h;
  h.Record(123456);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    // Midpoint clamps into [min, max] == [123456, 123456].
    EXPECT_EQ(h.ValueAtQuantile(q), 123456u) << q;
  }
}

TEST(MetricsRegistryTest, OwnedAndExternalCountersAndGauges) {
  MetricsRegistry registry;
  std::uint64_t* owned = registry.AddCounter("test.owned");
  std::uint64_t external = 7;
  registry.RegisterCounter("test.external", &external);
  std::uint64_t gauge_value = 3;
  registry.RegisterGauge("test.gauge", [&gauge_value] { return gauge_value; });

  *owned += 2;
  *owned += 3;
  external = 11;
  gauge_value = 9;

  std::ostringstream os;
  registry.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"test.owned\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.external\": 11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.gauge\": 9"), std::string::npos) << json;
  // The registry keeps no history: the time series is its sampled view.
  EXPECT_EQ(json.find("\"epochs\""), std::string::npos) << json;
}

// The export format byte for byte: counters, gauges, then histograms,
// each read from the live cells at write time.
TEST(MetricsRegistryTest, WriteJsonTextIsCountersGaugesThenHistograms) {
  MetricsRegistry registry;
  *registry.AddCounter("c.one") = 4;
  std::uint64_t external = 6;
  registry.RegisterCounter("c.two", &external);
  registry.RegisterGauge("g", [] { return std::uint64_t{2}; });
  LogLinearHistogram* h = registry.AddHistogram("h");
  h->Record(3);
  h->Record(101);
  registry.AddHistogram("empty");
  external = 7;

  std::ostringstream os;
  registry.WriteJson(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"counters\": {\"c.one\": 4, \"c.two\": 7},\n"
            "  \"gauges\": {\"g\": 2},\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 2, \"min\": 3, \"max\": 101, "
            "\"mean\": 52, \"p50\": 3, \"p90\": 100, \"p99\": 100, "
            "\"p999\": 100, \"buckets\": [[3, 3, 1], [100, 101, 1]]},\n"
            "    \"empty\": {\"count\": 0, \"buckets\": []}\n"
            "  }\n"
            "}\n");
}

TEST(MetricsRegistryTest, HistogramExportCarriesSummaryAndQuantiles) {
  MetricsRegistry registry;
  LogLinearHistogram* h = registry.AddHistogram("test.hist");
  for (int v = 1; v <= 10; ++v) h->Record(v);
  std::ostringstream os;
  registry.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 5"), std::string::npos) << json;
}

TEST(JsonUtilTest, WriteJsonEscapedEscapesNewlineTabAndDropsOtherControls) {
  std::ostringstream os;
  WriteJsonEscaped(os, std::string("a\"b\\c\nd\te\x01\x1f" "f"));
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\tef\"");
}

}  // namespace
}  // namespace dcrd
