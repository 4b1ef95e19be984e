// Metrics registry: named counters, gauges, and log-linear histograms.
//
// The registry unifies the simulator's ad-hoc counters behind one named
// namespace, so a run can be post-processed from a single JSON document
// instead of scattered stdout figures. Three metric kinds:
//  * Counters — monotonically increasing uint64. Either owned by the
//    registry (AddCounter) or registered by const pointer onto a counter
//    that some subsystem already maintains (RegisterCounter); the latter
//    keeps existing accounting (TrafficCounters, router drop counts) as the
//    single source of truth.
//  * Gauges — sampled on demand through a callback (pending events, open
//    episodes, in-flight copies).
//  * Histograms — HDR-style log-linear distributions (LogLinearHistogram
//    below), fixed-size array storage, used for delivery delay and hop RTT.
//
// Recording into a histogram is two array writes and a handful of integer
// ops — no allocation, no floating point — so it is safe on the per-event
// hot path. The registry itself holds no history: WriteJson exports the
// end-of-run values, and the time-series sampler (obs/timeseries.h) is the
// one sampled view of it during the run.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>

namespace dcrd {

// Log-linear ("HDR-style") histogram over non-negative integer values.
//
// Values below 32 get exact unit-width buckets; above that, each power-of-
// two octave is split into 32 linear sub-buckets, so the relative width of
// any bucket is at most 1/32 (~3.1%). 60 octave groups cover the full
// uint64 range in 1920 fixed buckets of std::array storage — no allocation
// ever, Clear() is a memset.
class LogLinearHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;       // 32
  static constexpr int kGroups = 60;
  static constexpr int kBucketCount = kGroups * kSubBuckets;    // 1920

  // Maps a value to its bucket. Exact for v < 32; log-linear above.
  static int BucketIndex(std::uint64_t v);
  // Smallest value landing in bucket `index`.
  static std::uint64_t BucketLo(int index);
  // Largest value landing in bucket `index` (inclusive).
  static std::uint64_t BucketHi(int index);

  // Records one observation. Negative values clamp to zero (delay math can
  // produce -0-adjacent values from integer rounding; they mean "now").
  void Record(std::int64_t value) {
    const std::uint64_t v =
        value < 0 ? 0u : static_cast<std::uint64_t>(value);
    ++buckets_[static_cast<std::size_t>(BucketIndex(v))];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  // Undefined (0 / max) when count() == 0; callers check count() first.
  [[nodiscard]] std::uint64_t min() const { return min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t CountAt(int index) const {
    return buckets_[static_cast<std::size_t>(index)];
  }

  // Nearest-rank quantile (same rank rule as stats.cc's Quantile, pinned
  // against it by the regression tests). Returns the matched bucket's
  // midpoint clamped into [min(), max()], so exact-width buckets report
  // exact values and wide buckets err by at most half a bucket (~1.6%).
  [[nodiscard]] std::uint64_t ValueAtQuantile(double q) const;

  // Adds `n` observations to bucket `index` without their exact values:
  // count grows by n and min/max widen to the bucket's bounds (sum is left
  // alone). Rebuilds a distribution from exported raw-bucket counts, as
  // ComputeSloSeries does per window.
  void AddToBucket(int index, std::uint64_t n);

  void Clear();

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creates a registry-owned counter cell. The returned pointer is stable
  // for the registry's lifetime; increment it directly.
  std::uint64_t* AddCounter(std::string name);

  // Registers an externally owned counter by const pointer. The source must
  // outlive the registry; it stays the single source of truth and is read
  // at sample / export time.
  void RegisterCounter(std::string name, const std::uint64_t* source);

  // Registers a gauge sampled via `sample` at sample / export time.
  void RegisterGauge(std::string name, std::function<std::uint64_t()> sample);

  // Creates a registry-owned histogram. Stable pointer, record directly.
  LogLinearHistogram* AddHistogram(std::string name);

  // Read access for the time-series sampler (obs/timeseries.h): metric
  // counts, names, and live values, in registration order.
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] const std::string& counter_name(std::size_t i) const {
    return counters_[i].name;
  }
  [[nodiscard]] std::uint64_t counter_value(std::size_t i) const {
    return counters_[i].value();
  }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] const std::string& gauge_name(std::size_t i) const {
    return gauges_[i].name;
  }
  [[nodiscard]] std::uint64_t gauge_value(std::size_t i) const {
    return gauges_[i].sample();
  }
  [[nodiscard]] std::size_t histogram_count() const {
    return histograms_.size();
  }
  [[nodiscard]] const std::string& histogram_name(std::size_t i) const {
    return histograms_[i].name;
  }
  [[nodiscard]] const LogLinearHistogram& histogram(std::size_t i) const {
    return histograms_[i].histogram;
  }

  // Writes the whole registry as one JSON document, read from the live
  // cells now: counter and gauge values, and each histogram's summary
  // stats, quantiles, and non-empty buckets as [lo, hi, count] triples.
  void WriteJson(std::ostream& os) const;

 private:
  struct Counter {
    std::string name;
    std::uint64_t owned = 0;              // cell for AddCounter counters
    const std::uint64_t* source = nullptr;  // external for RegisterCounter
    [[nodiscard]] std::uint64_t value() const {
      return source != nullptr ? *source : owned;
    }
  };
  struct Gauge {
    std::string name;
    std::function<std::uint64_t()> sample;
  };
  struct Histogram {
    std::string name;
    LogLinearHistogram histogram;
  };

  // deques: stable element addresses across Add*/Register* calls.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace dcrd
