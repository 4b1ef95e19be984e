#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "common/logging.h"
#include "obs/json_util.h"

namespace dcrd {

int LogLinearHistogram::BucketIndex(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  return (msb - (kSubBucketBits - 1)) * kSubBuckets +
         static_cast<int>((v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
}

std::uint64_t LogLinearHistogram::BucketLo(int index) {
  DCRD_CHECK(index >= 0 && index < kBucketCount);
  const int group = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (group == 0) return static_cast<std::uint64_t>(sub);
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (group - 1);
}

std::uint64_t LogLinearHistogram::BucketHi(int index) {
  DCRD_CHECK(index >= 0 && index < kBucketCount);
  if (index + 1 == kBucketCount) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return BucketLo(index + 1) - 1;
}

std::uint64_t LogLinearHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  // Nearest-rank with the same epsilon guard as stats.cc's Quantile, so the
  // histogram and the scalar path agree on which sample a quantile names.
  const double h = q * static_cast<double>(count_);
  std::uint64_t rank =
      h <= 1.0 ? 0 : static_cast<std::uint64_t>(std::ceil(h - 1e-9)) - 1;
  if (rank >= count_) rank = count_ - 1;

  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[static_cast<std::size_t>(i)];
    if (cumulative > rank) {
      const std::uint64_t lo = BucketLo(i);
      const std::uint64_t hi = BucketHi(i);
      std::uint64_t value = lo + (hi - lo) / 2;
      value = std::clamp(value, min_, max_);
      return value;
    }
  }
  return max_;
}

void LogLinearHistogram::AddToBucket(int index, std::uint64_t n) {
  if (n == 0) return;
  buckets_[static_cast<std::size_t>(index)] += n;
  count_ += n;
  min_ = std::min(min_, BucketLo(index));
  max_ = std::max(max_, BucketHi(index));
}

void LogLinearHistogram::Clear() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

std::uint64_t* MetricsRegistry::AddCounter(std::string name) {
  Counter& counter = counters_.emplace_back();
  counter.name = std::move(name);
  return &counter.owned;
}

void MetricsRegistry::RegisterCounter(std::string name,
                                      const std::uint64_t* source) {
  DCRD_CHECK(source != nullptr);
  Counter& counter = counters_.emplace_back();
  counter.name = std::move(name);
  counter.source = source;
}

void MetricsRegistry::RegisterGauge(std::string name,
                                    std::function<std::uint64_t()> sample) {
  DCRD_CHECK(sample != nullptr);
  Gauge& gauge = gauges_.emplace_back();
  gauge.name = std::move(name);
  gauge.sample = std::move(sample);
}

LogLinearHistogram* MetricsRegistry::AddHistogram(std::string name) {
  Histogram& histogram = histograms_.emplace_back();
  histogram.name = std::move(name);
  return &histogram.histogram;
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i > 0) os << ", ";
    WriteJsonEscaped(os, counters_[i].name);
    os << ": " << counters_[i].value();
  }
  os << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i > 0) os << ", ";
    WriteJsonEscaped(os, gauges_[i].name);
    os << ": " << gauges_[i].sample();
  }
  os << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const LogLinearHistogram& h = histograms_[i].histogram;
    os << (i == 0 ? "\n" : ",\n") << "    ";
    WriteJsonEscaped(os, histograms_[i].name);
    os << ": {\"count\": " << h.count();
    if (h.count() > 0) {
      const double mean =
          static_cast<double>(h.sum()) / static_cast<double>(h.count());
      os << ", \"min\": " << h.min() << ", \"max\": " << h.max()
         << ", \"mean\": " << mean << ", \"p50\": " << h.ValueAtQuantile(0.5)
         << ", \"p90\": " << h.ValueAtQuantile(0.9)
         << ", \"p99\": " << h.ValueAtQuantile(0.99)
         << ", \"p999\": " << h.ValueAtQuantile(0.999);
    }
    os << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < LogLinearHistogram::kBucketCount; ++b) {
      if (h.CountAt(b) == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << "[" << LogLinearHistogram::BucketLo(b) << ", "
         << LogLinearHistogram::BucketHi(b) << ", " << h.CountAt(b) << "]";
    }
    os << "]}";
  }
  os << "\n  }\n}\n";
}

}  // namespace dcrd
