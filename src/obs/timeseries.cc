#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/logging.h"
#include "event/scheduler.h"
#include "obs/json_util.h"

namespace dcrd {

namespace {

// SLO ratios are the only non-integer values in the export; fixed %.6f
// keeps the byte output deterministic across libstdc++ versions.
std::string FormatRatio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::string(buf);
}

// Index of a named counter/histogram in the store, or npos.
constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

std::size_t FindName(const std::vector<std::string>& names,
                     const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return kNotFound;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry& registry,
                                     Scheduler& scheduler,
                                     const TimeSeriesConfig& config,
                                     BrokerHealthSource health)
    : registry_(registry),
      scheduler_(scheduler),
      interval_(config.interval),
      end_(config.end),
      health_(std::move(health)) {
  DCRD_CHECK(interval_.micros() > 0);
  store_.interval_us = interval_.micros();
  store_.node_count = config.node_count;

  // Sample budget: t = 0 baseline, one per interval through `end`, plus the
  // FinalizeAt tail. Everything below reserves against it so steady-state
  // sampling never reallocates.
  const std::size_t budget =
      static_cast<std::size_t>(end_.micros() / interval_.micros()) + 2;
  store_.t_us.reserve(budget);

  store_.counter_names.reserve(registry.counter_count());
  store_.counter_deltas.resize(registry.counter_count());
  prev_counters_.assign(registry.counter_count(), 0);
  for (std::size_t i = 0; i < registry.counter_count(); ++i) {
    store_.counter_names.push_back(registry.counter_name(i));
    store_.counter_deltas[i].reserve(budget);
  }

  store_.gauge_names.reserve(registry.gauge_count());
  store_.gauge_values.resize(registry.gauge_count());
  for (std::size_t i = 0; i < registry.gauge_count(); ++i) {
    store_.gauge_names.push_back(registry.gauge_name(i));
    store_.gauge_values[i].reserve(budget);
  }

  const std::size_t pool_reserve = config.histogram_pool_reserve != 0
                                       ? config.histogram_pool_reserve
                                       : budget * 48;
  store_.histogram_names.reserve(registry.histogram_count());
  store_.histogram_deltas.resize(registry.histogram_count());
  shadows_.resize(registry.histogram_count());
  for (std::size_t i = 0; i < registry.histogram_count(); ++i) {
    store_.histogram_names.push_back(registry.histogram_name(i));
    TimeSeriesStore::HistogramDeltas& deltas = store_.histogram_deltas[i];
    deltas.bucket.reserve(pool_reserve);
    deltas.count.reserve(pool_reserve);
    deltas.end_offset.reserve(budget);
    deltas.count_delta.reserve(budget);
    deltas.sum_delta.reserve(budget);
    shadows_[i].buckets.assign(LogLinearHistogram::kBucketCount, 0);
  }

  if (store_.node_count > 0) {
    store_.broker_pending.reserve(budget * store_.node_count);
    store_.broker_dedup.reserve(budget * store_.node_count);
    store_.broker_rto_us.reserve(budget * store_.node_count);
    health_scratch_.resize(store_.node_count);
  }

  SampleNow();  // t = 0 baseline
  ScheduleNext();
}

void TimeSeriesSampler::SampleNow() {
  AppendSample(scheduler_.now().micros());
}

void TimeSeriesSampler::FinalizeAt(SimTime t) {
  if (!store_.t_us.empty() && t.micros() == store_.t_us.back()) return;
  DCRD_CHECK(store_.t_us.empty() || t.micros() > store_.t_us.back());
  AppendSample(t.micros());
}

void TimeSeriesSampler::AppendSample(std::int64_t t_us) {
  store_.t_us.push_back(t_us);

  for (std::size_t i = 0; i < store_.counter_deltas.size(); ++i) {
    const std::uint64_t value = registry_.counter_value(i);
    store_.counter_deltas[i].push_back(value - prev_counters_[i]);
    prev_counters_[i] = value;
  }

  for (std::size_t i = 0; i < store_.gauge_values.size(); ++i) {
    store_.gauge_values[i].push_back(registry_.gauge_value(i));
  }

  for (std::size_t i = 0; i < store_.histogram_deltas.size(); ++i) {
    const LogLinearHistogram& h = registry_.histogram(i);
    TimeSeriesStore::HistogramDeltas& deltas = store_.histogram_deltas[i];
    HistogramShadow& shadow = shadows_[i];
    for (int b = 0; b < LogLinearHistogram::kBucketCount; ++b) {
      const std::uint64_t now = h.CountAt(b);
      const std::uint64_t prev = shadow.buckets[static_cast<std::size_t>(b)];
      if (now != prev) {
        deltas.bucket.push_back(static_cast<std::uint32_t>(b));
        deltas.count.push_back(now - prev);
        shadow.buckets[static_cast<std::size_t>(b)] = now;
      }
    }
    deltas.end_offset.push_back(deltas.bucket.size());
    deltas.count_delta.push_back(h.count() - shadow.count);
    deltas.sum_delta.push_back(h.sum() - shadow.sum);
    shadow.count = h.count();
    shadow.sum = h.sum();
  }

  if (store_.node_count > 0) {
    for (BrokerHealth& b : health_scratch_) b = BrokerHealth{};
    if (health_) health_(health_scratch_);
    for (const BrokerHealth& b : health_scratch_) {
      store_.broker_pending.push_back(b.pending_copies);
      store_.broker_dedup.push_back(b.dedup_entries);
      store_.broker_rto_us.push_back(b.rto_us);
    }
  }
}

void TimeSeriesSampler::ScheduleNext() {
  if (scheduler_.now() + interval_ > end_) return;
  scheduler_.ScheduleAfter(interval_, [this] {
    SampleNow();
    ScheduleNext();
  });
}

std::vector<SloWindow> ComputeSloSeries(const TimeSeriesStore& store) {
  const std::size_t published =
      FindName(store.counter_names, "slo.pairs_published");
  const std::size_t delivered =
      FindName(store.counter_names, "slo.pairs_delivered");
  const std::size_t on_time =
      FindName(store.counter_names, "slo.pairs_on_time");
  if (published == kNotFound || delivered == kNotFound ||
      on_time == kNotFound) {
    return {};
  }
  const std::size_t delay_hist =
      FindName(store.histogram_names, "delivery.delay_us");

  std::vector<SloWindow> windows;
  if (store.samples() < 2) return windows;
  windows.reserve(store.samples() - 1);
  LogLinearHistogram scratch;
  for (std::size_t s = 1; s < store.samples(); ++s) {
    SloWindow w;
    w.t_us = store.t_us[s];
    w.published = store.counter_deltas[published][s];
    w.delivered = store.counter_deltas[delivered][s];
    w.on_time = store.counter_deltas[on_time][s];
    w.delivery_ratio =
        w.published == 0
            ? 1.0
            : static_cast<double>(w.delivered) / static_cast<double>(w.published);
    w.violation_rate =
        w.delivered == 0
            ? 0.0
            : static_cast<double>(w.delivered - w.on_time) /
                  static_cast<double>(w.delivered);
    if (delay_hist != kNotFound) {
      const TimeSeriesStore::HistogramDeltas& deltas =
          store.histogram_deltas[delay_hist];
      const std::size_t begin = deltas.end_offset[s - 1];
      const std::size_t end = deltas.end_offset[s];
      if (end > begin) {
        // Rebuild the window's distribution from raw-bucket deltas. Min and
        // max are bucket bounds rather than exact observations, so wide-
        // bucket quantiles may clamp slightly differently than a live
        // histogram's — deterministic either way.
        HistogramSnapshot snap;
        snap.count = deltas.count_delta[s];
        snap.sum = deltas.sum_delta[s];
        snap.buckets.reserve(end - begin);
        for (std::size_t k = begin; k < end; ++k) {
          const int b = static_cast<int>(deltas.bucket[k]);
          snap.buckets.push_back({LogLinearHistogram::BucketLo(b),
                                  LogLinearHistogram::BucketHi(b),
                                  deltas.count[k]});
        }
        snap.min = snap.buckets.front().lo;
        snap.max = snap.buckets.back().hi;
        scratch.Clear();
        scratch.AbsorbSnapshot(snap);
        w.delay_p50_us = scratch.ValueAtQuantile(0.50);
        w.delay_p90_us = scratch.ValueAtQuantile(0.90);
        w.delay_p99_us = scratch.ValueAtQuantile(0.99);
      }
    }
    windows.push_back(w);
  }
  return windows;
}

namespace {

void WriteSeriesSection(
    std::ostream& os, const char* value_key,
    const std::vector<std::string>& names,
    const std::vector<std::vector<std::uint64_t>>& columns) {
  os << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n    ";
    WriteJsonEscaped(os, names[i]);
    os << ":{\"" << value_key << "\":";
    WriteU64Array(os, columns[i]);
    os << '}';
  }
  if (!names.empty()) os << "\n  ";
  os << '}';
}

}  // namespace

void WriteTimeSeriesJson(std::ostream& os, const TimeSeriesStore& store) {
  os << "{\n";
  os << "  \"schema\":\"dcrd-timeseries-v1\",\n";
  os << "  \"interval_us\":" << store.interval_us << ",\n";
  os << "  \"samples\":" << store.samples() << ",\n";
  os << "  \"node_count\":" << store.node_count << ",\n";
  os << "  \"t_us\":";
  WriteI64Array(os, store.t_us);
  os << ",\n  \"counters\":";
  WriteSeriesSection(os, "deltas", store.counter_names,
                     store.counter_deltas);
  os << ",\n  \"gauges\":";
  WriteSeriesSection(os, "values", store.gauge_names, store.gauge_values);
  os << ",\n  \"histograms\":{";
  for (std::size_t i = 0; i < store.histogram_names.size(); ++i) {
    if (i != 0) os << ',';
    const TimeSeriesStore::HistogramDeltas& deltas = store.histogram_deltas[i];
    os << "\n    ";
    WriteJsonEscaped(os, store.histogram_names[i]);
    os << ":{\"count_deltas\":";
    WriteU64Array(os, deltas.count_delta);
    os << ",\"sum_deltas\":";
    WriteU64Array(os, deltas.sum_delta);
    // Per-sample arrays of [bucket_lo, count] pairs; bucket identity is the
    // lo value (like HistogramSnapshot), not the internal index.
    os << ",\"buckets\":[";
    for (std::size_t s = 0; s < store.samples(); ++s) {
      if (s != 0) os << ',';
      const std::size_t begin = s == 0 ? 0 : deltas.end_offset[s - 1];
      const std::size_t end = deltas.end_offset[s];
      os << '[';
      for (std::size_t k = begin; k < end; ++k) {
        if (k != begin) os << ',';
        os << '['
           << LogLinearHistogram::BucketLo(static_cast<int>(deltas.bucket[k]))
           << ',' << deltas.count[k] << ']';
      }
      os << ']';
    }
    os << "]}";
  }
  if (!store.histogram_names.empty()) os << "\n  ";
  os << "},\n";
  os << "  \"brokers\":{\"pending_copies\":";
  WriteU64Array(os, store.broker_pending);
  os << ",\"dedup_entries\":";
  WriteU64Array(os, store.broker_dedup);
  os << ",\"rto_us\":";
  WriteU64Array(os, store.broker_rto_us);
  os << "},\n";
  const std::vector<SloWindow> slo = ComputeSloSeries(store);
  os << "  \"slo\":[";
  for (std::size_t i = 0; i < slo.size(); ++i) {
    const SloWindow& w = slo[i];
    if (i != 0) os << ',';
    os << "\n    {\"t_us\":" << w.t_us << ",\"published\":" << w.published
       << ",\"delivered\":" << w.delivered << ",\"on_time\":" << w.on_time
       << ",\"delivery_ratio\":" << FormatRatio(w.delivery_ratio)
       << ",\"violation_rate\":" << FormatRatio(w.violation_rate)
       << ",\"delay_p50_us\":" << w.delay_p50_us
       << ",\"delay_p90_us\":" << w.delay_p90_us
       << ",\"delay_p99_us\":" << w.delay_p99_us << '}';
  }
  if (!slo.empty()) os << "\n  ";
  os << "]\n}\n";
}

namespace {

bool LoadSeriesSection(JsonCursor& cursor, const char* value_key,
                       std::vector<std::string>* names,
                       std::vector<std::vector<std::uint64_t>>* columns) {
  return cursor.ReadObject([&](const std::string& name) {
    names->push_back(name);
    columns->emplace_back();
    return cursor.ReadObject([&](const std::string& key) {
      if (key == value_key) return cursor.ReadU64Array(&columns->back());
      // Anything else — including the per-series "policy" tag older
      // writers emitted — is skipped.
      return cursor.SkipValue();
    });
  });
}

}  // namespace

bool LoadTimeSeriesJson(std::string_view text, TimeSeriesStore* out,
                        std::string* error) {
  JsonCursor cursor;
  cursor.text = text;
  *out = TimeSeriesStore{};
  std::string schema;
  bool parsed = cursor.ReadObject([&](const std::string& key) {
    if (key == "schema") return cursor.ReadString(&schema);
    if (key == "interval_us") return cursor.ReadI64(&out->interval_us);
    if (key == "node_count") {
      std::uint64_t value = 0;
      if (!cursor.ReadU64(&value)) return false;
      out->node_count = static_cast<std::size_t>(value);
      return true;
    }
    if (key == "t_us") {
      return cursor.ReadArray([&] {
        std::int64_t value = 0;
        if (!cursor.ReadI64(&value)) return false;
        out->t_us.push_back(value);
        return true;
      });
    }
    if (key == "counters") {
      return LoadSeriesSection(cursor, "deltas", &out->counter_names,
                               &out->counter_deltas);
    }
    if (key == "gauges") {
      return LoadSeriesSection(cursor, "values", &out->gauge_names,
                               &out->gauge_values);
    }
    if (key == "histograms") {
      return cursor.ReadObject([&](const std::string& name) {
        out->histogram_names.push_back(name);
        out->histogram_deltas.emplace_back();
        TimeSeriesStore::HistogramDeltas& deltas =
            out->histogram_deltas.back();
        return cursor.ReadObject([&](const std::string& key2) {
          if (key2 == "count_deltas") {
            return cursor.ReadU64Array(&deltas.count_delta);
          }
          if (key2 == "sum_deltas") {
            return cursor.ReadU64Array(&deltas.sum_delta);
          }
          if (key2 == "buckets") {
            return cursor.ReadArray([&] {
              const bool sample_ok = cursor.ReadArray([&] {
                std::uint64_t lo = 0;
                std::uint64_t count = 0;
                if (!cursor.Expect('[') || !cursor.ReadU64(&lo)) return false;
                if (!cursor.Expect(',') || !cursor.ReadU64(&count)) {
                  return false;
                }
                if (!cursor.Expect(']')) return false;
                deltas.bucket.push_back(static_cast<std::uint32_t>(
                    LogLinearHistogram::BucketIndex(lo)));
                deltas.count.push_back(count);
                return true;
              });
              deltas.end_offset.push_back(deltas.bucket.size());
              return sample_ok;
            });
          }
          return cursor.SkipValue();
        });
      });
    }
    if (key == "brokers") {
      return cursor.ReadObject([&](const std::string& key2) {
        if (key2 == "pending_copies") {
          return cursor.ReadU64Array(&out->broker_pending);
        }
        if (key2 == "dedup_entries") {
          return cursor.ReadU64Array(&out->broker_dedup);
        }
        if (key2 == "rto_us") return cursor.ReadU64Array(&out->broker_rto_us);
        return cursor.SkipValue();
      });
    }
    // "samples" and "slo" are derived; skip them (and unknown keys).
    return cursor.SkipValue();
  });
  if (!parsed || !cursor.ok()) {
    if (error != nullptr) {
      *error = cursor.error.empty() ? "malformed time-series JSON"
                                    : cursor.error;
    }
    return false;
  }
  if (schema != "dcrd-timeseries-v1") {
    if (error != nullptr) *error = "unknown schema '" + schema + "'";
    return false;
  }
  return true;
}

void PrintTimeSeries(std::ostream& os, const TimeSeriesStore& store) {
  const std::size_t n = store.samples();
  os << "time series: " << n << " samples, interval "
     << store.interval_us / 1000 << " ms, " << store.counter_names.size()
     << " counters, " << store.gauge_names.size() << " gauges, "
     << store.histogram_names.size() << " histograms, " << store.node_count
     << " brokers\n";
  if (n == 0) return;
  os << "  span: t=" << store.t_us.front() << "us .. t=" << store.t_us.back()
     << "us\n";

  os << "counter totals (sum of sampled deltas):\n";
  for (std::size_t i = 0; i < store.counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const std::uint64_t d : store.counter_deltas[i]) total += d;
    os << "  " << store.counter_names[i] << " = " << total << "\n";
  }

  if (!store.gauge_names.empty()) {
    os << "gauge ranges (min..max, final):\n";
    for (std::size_t i = 0; i < store.gauge_names.size(); ++i) {
      const std::vector<std::uint64_t>& values = store.gauge_values[i];
      std::uint64_t lo = values.empty() ? 0 : values.front();
      std::uint64_t hi = lo;
      for (const std::uint64_t v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      os << "  " << store.gauge_names[i] << " = " << lo << ".." << hi
         << ", final " << (values.empty() ? 0 : values.back()) << "\n";
    }
  }

  const std::vector<SloWindow> slo = ComputeSloSeries(store);
  if (!slo.empty()) {
    // Stride the table down to at most ~24 rows so long runs stay readable.
    const std::size_t stride = slo.size() > 24 ? (slo.size() + 23) / 24 : 1;
    os << "SLO windows (every " << stride << "):\n";
    os << "  t_ms       pub     dlv  on_time   ratio  viol     p50us    "
          "p99us\n";
    for (std::size_t i = 0; i < slo.size(); i += stride) {
      const SloWindow& w = slo[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-9lld %7llu %7llu %8llu  %.4f  %.4f  %8llu %8llu\n",
                    static_cast<long long>(w.t_us / 1000),
                    static_cast<unsigned long long>(w.published),
                    static_cast<unsigned long long>(w.delivered),
                    static_cast<unsigned long long>(w.on_time),
                    w.delivery_ratio, w.violation_rate,
                    static_cast<unsigned long long>(w.delay_p50_us),
                    static_cast<unsigned long long>(w.delay_p99_us));
      os << line;
    }
  }
}

}  // namespace dcrd
