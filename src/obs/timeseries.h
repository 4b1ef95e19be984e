// Continuous telemetry: fixed-interval sim-time sampling of the metrics
// registry into a columnar in-memory store (DESIGN.md §12).
//
// The sampler rides the scheduler like the engine's failure-epoch tick: a
// chain-scheduled, strictly read-only event every `interval` of sim time.
// It is the one sampled view of the registry; per-epoch control-plane
// health (dcrd.solves, ...) reads off its counter deltas at the rebuild
// instants.
// Each sample snapshots counter DELTAS (since the previous sample), gauge
// LEVELS, raw-bucket histogram deltas, and per-broker health gauges
// (BrokerHealth) into columns that were fully reserved up front — the
// steady-state sampling path performs zero heap allocations (pinned by
// tests/perf/timeseries_alloc_test.cc) and never writes to stdout or
// touches RNG state, so enabling it leaves figure output byte-identical.
//
// The windowed deadline-SLO view (per-window delivery ratio, deadline
// violation rate, delay quantiles) is a pure function over the stored
// deltas, computed by ComputeSloSeries at export time — never during the
// run.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/broker_health.h"
#include "obs/metrics_registry.h"

namespace dcrd {

class Scheduler;

struct TimeSeriesConfig {
  // Sampling cadence. Samples land at t = 0, interval, 2*interval, ...
  SimDuration interval = SimDuration::Seconds(1);
  // Last scheduled sample time; FinalizeAt appends the post-drain tail.
  SimTime end = SimTime::FromMicros(0);
  // Brokers to sample via the health source; 0 disables broker columns.
  std::size_t node_count = 0;
};

// Columnar store: one row per sample, one column per metric. Counters are
// stored as per-window deltas, gauges as sampled levels. Histogram deltas
// are a shared pool of (bucket index, count delta) pairs plus per-sample
// exclusive end offsets — dense enough to replay any window's distribution
// exactly, compact enough to reserve up front.
struct TimeSeriesStore {
  std::int64_t interval_us = 0;
  std::size_t node_count = 0;

  // Metric identities, copied from the registry in registration order.
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;

  std::vector<std::int64_t> t_us;  // sample times, ascending
  // Column-major: counter_deltas[c][s] is metric c's delta over window s.
  std::vector<std::vector<std::uint64_t>> counter_deltas;
  std::vector<std::vector<std::uint64_t>> gauge_values;

  struct HistogramDeltas {
    // Pool of non-empty bucket deltas, grouped by sample, buckets ascending
    // within a sample. `bucket` is a LogLinearHistogram bucket index.
    std::vector<std::uint32_t> bucket;
    std::vector<std::uint64_t> count;
    std::vector<std::size_t> end_offset;     // per sample, exclusive
    std::vector<std::uint64_t> count_delta;  // per sample
    std::vector<std::uint64_t> sum_delta;    // per sample
  };
  std::vector<HistogramDeltas> histogram_deltas;  // parallel to names

  // Per-broker health columns, sample-major: sample s, broker b lives at
  // [s * node_count + b]. Empty when node_count == 0.
  std::vector<std::uint64_t> broker_pending;
  std::vector<std::uint64_t> broker_dedup;
  std::vector<std::uint64_t> broker_rto_us;

  [[nodiscard]] std::size_t samples() const { return t_us.size(); }
};

// Chain-scheduled sampler. Constructing it takes the t = 0 baseline sample
// and schedules the chain; SampleNow() drives it manually in tests.
class TimeSeriesSampler {
 public:
  // Fills `out` (pre-sized to node_count, zeroed) with per-broker health.
  using BrokerHealthSource = std::function<void(std::vector<BrokerHealth>&)>;

  // `registry` must already hold every metric the series should cover —
  // metrics registered later are not sampled. Both references must outlive
  // the sampler. `health` may be null (broker columns sample as zero).
  TimeSeriesSampler(const MetricsRegistry& registry, Scheduler& scheduler,
                    const TimeSeriesConfig& config,
                    BrokerHealthSource health = nullptr);

  // Appends one sample at scheduler.now(). Zero-allocation steady state.
  void SampleNow();

  // Appends the tail sample covering (last sample, t] — the post-drain
  // window up to quiescence. No-op if t equals the last sample time
  // (t must not precede it). Call exactly once, after the run.
  void FinalizeAt(SimTime t);

  [[nodiscard]] const TimeSeriesStore& store() const { return store_; }

 private:
  void AppendSample(std::int64_t t_us);
  void ScheduleNext();

  const MetricsRegistry& registry_;
  Scheduler& scheduler_;
  const SimDuration interval_;
  const SimTime end_;
  BrokerHealthSource health_;
  TimeSeriesStore store_;

  // Previous-value shadows for delta computation.
  std::vector<std::uint64_t> prev_counters_;
  struct HistogramShadow {
    std::vector<std::uint64_t> buckets;  // kBucketCount entries
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::vector<HistogramShadow> shadows_;
  std::vector<BrokerHealth> health_scratch_;
};

// One window of the deadline-SLO view, derived from sample s >= 1 covering
// (t_us[s-1], t_us[s]]. Pairs here are (message, matched subscriber) pairs;
// "on time" means delivered within that subscriber's delay requirement.
struct SloWindow {
  std::int64_t t_us = 0;  // window end
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t on_time = 0;
  double delivery_ratio = 1.0;   // delivered / published; 1 when idle
  double violation_rate = 0.0;   // (delivered - on_time) / delivered
  // Windowed delay quantiles from the delivery.delay_us histogram deltas;
  // zero for an empty window.
  std::uint64_t delay_p50_us = 0;
  std::uint64_t delay_p90_us = 0;
  std::uint64_t delay_p99_us = 0;
};

// Pure function of the store. Returns an empty vector when the
// slo.* counters are absent from the store.
[[nodiscard]] std::vector<SloWindow> ComputeSloSeries(
    const TimeSeriesStore& store);

// Serialises a store (plus its computed SLO series) as one JSON document,
// schema "dcrd-timeseries-v1". Deterministic byte output: integers only,
// except SLO ratios printed with fixed %.6f formatting.
void WriteTimeSeriesJson(std::ostream& os, const TimeSeriesStore& store);

// Parses a WriteTimeSeriesJson document through the strict JsonCursor.
// Returns false and sets *error on malformed input, including integers
// that do not fit exactly and text after the document. Unknown keys are
// skipped, so documents from older writers that tagged each series with a
// "policy" still load. Offline tooling path (dcrd_trace); allocates
// freely.
bool LoadTimeSeriesJson(std::string_view text, TimeSeriesStore* out,
                        std::string* error);

// Terminal rendering for `dcrd_trace --timeseries`: run shape, per-counter
// totals, gauge ranges, and the SLO window table (strided to fit a screen).
void PrintTimeSeries(std::ostream& os, const TimeSeriesStore& store);

}  // namespace dcrd
