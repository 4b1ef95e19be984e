#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "common/logging.h"

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

HistogramSnapshot LogLinearHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_;
  snapshot.sum = sum_;
  snapshot.min = min_;
  snapshot.max = max_;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    snapshot.buckets.push_back({BucketLo(i), BucketHi(i), n});
  }
  return snapshot;
}

void LogLinearHistogram::AbsorbSnapshot(const HistogramSnapshot& snapshot) {
  for (const HistogramSnapshot::Bucket& bucket : snapshot.buckets) {
    // A bucket's lo value lands in that same bucket, so BucketIndex(lo)
    // recovers the index exactly.
    buckets_[static_cast<std::size_t>(BucketIndex(bucket.lo))] +=
        bucket.count;
  }
  count_ += snapshot.count;
  sum_ += snapshot.sum;
  if (snapshot.count > 0) {
    if (snapshot.min < min_) min_ = snapshot.min;
    if (snapshot.max > max_) max_ = snapshot.max;
  }
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

void MetricsRegistry::SnapshotEpoch(SimTime t) {
  Epoch& epoch = epochs_.emplace_back();
  epoch.t_us = t.micros();
  epoch.counters.reserve(counters_.size());
  for (const Counter& counter : counters_) {
    epoch.counters.push_back(counter.value());
  }
  epoch.gauges.reserve(gauges_.size());
  for (const Gauge& gauge : gauges_) {
    epoch.gauges.push_back(gauge.sample());
  }
}

MetricsDoc MetricsRegistry::Collect() const {
  MetricsDoc doc;
  doc.epoch_t_us.reserve(epochs_.size());
  for (const Epoch& epoch : epochs_) doc.epoch_t_us.push_back(epoch.t_us);
  doc.counters.reserve(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    MetricsDoc::Series& series = doc.counters.emplace_back();
    series.name = counters_[i].name;
    series.final_value = counters_[i].value();
    series.epochs.reserve(epochs_.size());
    for (const Epoch& epoch : epochs_) {
      series.epochs.push_back(epoch.counters[i]);
    }
  }
  doc.gauges.reserve(gauges_.size());
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    MetricsDoc::Series& series = doc.gauges.emplace_back();
    series.name = gauges_[i].name;
    series.final_value = gauges_[i].sample();
    series.epochs.reserve(epochs_.size());
    for (const Epoch& epoch : epochs_) {
      series.epochs.push_back(epoch.gauges[i]);
    }
  }
  doc.histograms.reserve(histograms_.size());
  for (const Histogram& histogram : histograms_) {
    doc.histograms.push_back({histogram.name, histogram.histogram.Snapshot()});
  }
  return doc;
}

namespace {

// Minimal JSON string escaping; metric names are code-chosen identifiers,
// but a stray quote must not corrupt the document.
void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void WriteMetricsJson(std::ostream& os, const MetricsDoc& doc) {
  os << "{\n  \"epochs\": [";
  for (std::size_t e = 0; e < doc.epoch_t_us.size(); ++e) {
    os << (e == 0 ? "\n" : ",\n") << "    {\"t_us\": " << doc.epoch_t_us[e]
       << ", \"counters\": {";
    for (std::size_t i = 0; i < doc.counters.size(); ++i) {
      if (i > 0) os << ", ";
      WriteJsonString(os, doc.counters[i].name);
      os << ": " << doc.counters[i].epochs[e];
    }
    os << "}, \"gauges\": {";
    for (std::size_t i = 0; i < doc.gauges.size(); ++i) {
      if (i > 0) os << ", ";
      WriteJsonString(os, doc.gauges[i].name);
      os << ": " << doc.gauges[i].epochs[e];
    }
    os << "}}";
  }
  os << "\n  ],\n  \"counters\": {";
  for (std::size_t i = 0; i < doc.counters.size(); ++i) {
    if (i > 0) os << ", ";
    WriteJsonString(os, doc.counters[i].name);
    os << ": " << doc.counters[i].final_value;
  }
  os << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < doc.gauges.size(); ++i) {
    if (i > 0) os << ", ";
    WriteJsonString(os, doc.gauges[i].name);
    os << ": " << doc.gauges[i].final_value;
  }
  os << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < doc.histograms.size(); ++i) {
    // Rebuilt from the raw buckets, so the quantiles are a function of the
    // exported buckets alone.
    LogLinearHistogram h;
    h.AbsorbSnapshot(doc.histograms[i].snapshot);
    os << (i == 0 ? "\n" : ",\n") << "    ";
    WriteJsonString(os, doc.histograms[i].name);
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

void MetricsRegistry::WriteJson(std::ostream& os) const {
  WriteMetricsJson(os, Collect());
}

}  // namespace dcrd
