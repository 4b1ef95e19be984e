// Layered simulator benchmark (dcrd_perfbench).
//
//   dcrd_perfbench --workload ctrl_heavy|data_heavy|crash_churn --seed N
//                  --seconds S --trace 0|1 [--scale full|tiny]
//                  [--git_describe TEXT]
//
// --trace 0 measures the end-to-end metrics: every cell of the workload
// runs serially through the public RunScenario (one thread, one shard, no
// observability) for S seconds of repetitions, after set-up-only passes
// (sim_time = 0); times are per-cell minima scaled by a host-speed probe
// (see ReferenceKernelSeconds). --trace 1 measures the per-layer
// metrics: each repetition runs every cell untraced, then through the
// benchmark's traced mirror of the engine (traced_run.h), then with the
// flight-recorder ring on, and fails the cell unless all three summaries
// are identical.
//
// Every cell's output is checked (see CheckCells). Human-readable metric
// lines and one JSON record of the workload's scale go to stdout first; the
// last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// (per-layer values are medians over the run's repetitions).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "traced_run.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

#ifndef DCRD_PERFBENCH_BUILD_TYPE
#define DCRD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dcrd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Set-up-only passes per --trace 0 run: at least this many, and for at
// least 1/kSetupShare of --seconds.
constexpr std::size_t kMinSetupReps = 3;
constexpr double kSetupShare = 6.0;

enum class CellCheck {
  kPaperDelivery,  // DCRD delivers >= 0.999 over the workload (the paper)
  kCrashChurn,     // no violations; DCRD >= each tree per seed (ext8)
};

struct Workload {
  std::string name;
  // Every (scenario seed, router) pair, run serially in this order.
  std::vector<ScenarioConfig> cells;
  std::vector<std::uint64_t> scenario_seeds;
  CellCheck check = CellCheck::kPaperDelivery;
};

// The benchmark's workloads. One --seed expands into `sub_seeds` scenario
// seeds (seed * sub_seeds + k), so a run averages over that many
// topologies and subscriber sets instead of riding on one draw. `tiny`
// shrinks each to a smoke-test size with the same shape (routers, knobs,
// checks).
std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed, bool tiny) {
  ScenarioConfig base;
  base.topology = TopologyKind::kRandomDegree;
  base.loss_rate = 1e-4;
  base.topic_count = 10;
  // Every topic's subscriber probability pinned at the paper's mean Ps
  // (its range is [0.2, 0.6]): the per-topic draw is the largest source of
  // seed-to-seed variation in the amount of work, which a benchmark must
  // not have.
  base.subscriber_probability_min = 0.4;
  base.subscriber_probability_max = 0.4;
  std::vector<RouterKind> routers = {RouterKind::kDcrd};
  std::uint64_t sub_seeds = 1;
  Workload workload;
  workload.name = name;
  if (name == "ctrl_heavy") {
    // fig5's shape pushed until the <d,r> solve dominates: a 100-broker
    // degree-8 overlay rebuilt every 20 s (3 rebuilds a cell), light
    // traffic.
    base.node_count = tiny ? 30 : 100;
    base.degree = tiny ? 5 : 8;
    base.failure_probability = 0.06;
    base.max_transmissions = 1;
    base.publish_interval = SimDuration::Seconds(1);
    base.monitor_interval = SimDuration::Seconds(20);
    base.sim_time = SimDuration::Seconds(40);
    sub_seeds = tiny ? 1 : 4;
  } else if (name == "data_heavy") {
    // Packet path: 100 msg/s over a small lossy overlay with retransmits
    // and upstream reroutes; rebuilds are a sliver of wall time.
    base.node_count = tiny ? 16 : 40;
    base.degree = 5;
    base.failure_probability = 0.1;
    base.max_transmissions = 2;
    base.publish_interval = SimDuration::Millis(100);
    base.monitor_interval = SimDuration::Seconds(300);
    base.sim_time = SimDuration::Seconds(tiny ? 20 : 60);
    sub_seeds = tiny ? 1 : 6;
  } else if (name == "crash_churn") {
    // ext8 at MTBF 30 s plus subscription churn: crashes wipe router and
    // transport state while churn rewrites subscriptions, for all routers.
    base.node_count = tiny ? 12 : 40;
    base.degree = tiny ? 4 : 5;
    base.failure_probability = 0.0;
    base.max_transmissions = 3;
    base.adaptive_rto = true;
    base.peer_death_detection = true;
    base.broker_mtbf = SimDuration::Seconds(30);
    base.broker_mttr = SimDuration::Seconds(5);
    base.enable_invariant_checker = true;
    base.subscription_churn = 0.2;
    base.publish_interval = SimDuration::Seconds(1);
    base.monitor_interval = SimDuration::Seconds(20);
    base.sim_time = SimDuration::Seconds(tiny ? 60 : 40);
    sub_seeds = tiny ? 1 : 8;
    routers = {RouterKind::kDcrd, RouterKind::kRTree, RouterKind::kDTree,
               RouterKind::kOracle, RouterKind::kMultipath};
    workload.check = CellCheck::kCrashChurn;
  } else {
    return std::nullopt;
  }
  for (std::uint64_t k = 0; k < sub_seeds; ++k) {
    base.seed = seed * sub_seeds + k;
    workload.scenario_seeds.push_back(base.seed);
    for (const RouterKind router : routers) {
      ScenarioConfig cell = base;
      cell.router = router;
      workload.cells.push_back(cell);
    }
  }
  return workload;
}

// Field-by-field RunSummary equality (exact: the runs are deterministic).
bool SameSummary(const RunSummary& a, const RunSummary& b) {
  return a.expected_pairs == b.expected_pairs &&
         a.delivered_pairs == b.delivered_pairs &&
         a.qos_pairs == b.qos_pairs &&
         a.duplicate_deliveries == b.duplicate_deliveries &&
         a.data_transmissions == b.data_transmissions &&
         a.ack_transmissions == b.ack_transmissions &&
         a.control_transmissions == b.control_transmissions &&
         a.messages_published == b.messages_published &&
         a.retransmissions == b.retransmissions &&
         a.spurious_retransmissions == b.spurious_retransmissions &&
         a.rtt_samples == b.rtt_samples &&
         a.broker_crashes == b.broker_crashes &&
         a.broker_restarts == b.broker_restarts &&
         a.dropped_crash == b.dropped_crash &&
         a.crash_copies_killed == b.crash_copies_killed &&
         a.peer_deaths == b.peer_deaths && a.peer_probes == b.peer_probes &&
         a.peer_revivals == b.peer_revivals &&
         a.resyncs_started == b.resyncs_started &&
         a.resyncs_completed == b.resyncs_completed &&
         a.total_resync_time_us == b.total_resync_time_us &&
         a.max_resync_time_us == b.max_resync_time_us &&
         a.crash_excused_duplicates == b.crash_excused_duplicates &&
         a.invariant_violation_count == b.invariant_violation_count &&
         a.invariant_violations == b.invariant_violations &&
         a.lateness_ratios == b.lateness_ratios &&
         a.delay_ms_samples == b.delay_ms_samples;
}

void ReportFailure(const std::string& workload, const ScenarioConfig& cell,
                   const std::string& why) {
  std::fprintf(stderr, "check failed: %s %s seed %llu: %s\n",
               workload.c_str(), RouterName(cell.router),
               static_cast<unsigned long long>(cell.seed), why.c_str());
}

// Checks one repetition's summaries (one per cell, in workload order);
// returns the number of failed checks and explains each on stderr.
int CheckCells(const Workload& workload,
               const std::vector<RunSummary>& summaries) {
  int failed = 0;
  std::map<std::uint64_t, double> dcrd_delivery;  // by scenario seed
  RunSummary dcrd_pooled;
  for (std::size_t c = 0; c < summaries.size(); ++c) {
    if (workload.cells[c].router == RouterKind::kDcrd) {
      dcrd_delivery[workload.cells[c].seed] = summaries[c].delivery_ratio();
      dcrd_pooled.Absorb(summaries[c]);
    }
  }
  // The paper's claim is about the delivery ratio over many pairs, so it is
  // checked on the workload's pooled DCRD pairs: a short cell can lose a
  // few pairs to an unlucky partition without contradicting it.
  if (workload.check == CellCheck::kPaperDelivery &&
      dcrd_pooled.delivery_ratio() < 0.999) {
    std::fprintf(stderr, "check failed: %s DCRD pooled delivery ratio %g < "
                 "0.999\n", workload.name.c_str(),
                 dcrd_pooled.delivery_ratio());
    ++failed;
  }
  for (std::size_t c = 0; c < summaries.size(); ++c) {
    const RunSummary& s = summaries[c];
    const RouterKind router = workload.cells[c].router;
    std::ostringstream why;
    if (s.expected_pairs == 0) {
      why << "no expected pairs";
    } else if (s.delivered_pairs > s.expected_pairs) {
      why << "delivered " << s.delivered_pairs << " > expected "
          << s.expected_pairs;
    } else if (workload.check == CellCheck::kCrashChurn &&
               s.invariant_violation_count != 0) {
      why << s.invariant_violation_count << " invariant violations";
    } else if (workload.check == CellCheck::kCrashChurn &&
               (router == RouterKind::kRTree ||
                router == RouterKind::kDTree) &&
               dcrd_delivery[workload.cells[c].seed] < s.delivery_ratio()) {
      why << "DCRD delivery " << dcrd_delivery[workload.cells[c].seed]
          << " below this tree's " << s.delivery_ratio();
    }
    if (!why.str().empty()) {
      ReportFailure(workload.name, workload.cells[c], why.str());
      ++failed;
    }
  }
  return failed;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of an ascending sample vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Per-repetition metric values, reduced to per-metric medians in the order
// the metrics were first added.
class MetricTable {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    for (Row& row : rows_) {
      if (row.name == name) {
        row.values.push_back(value);
        return;
      }
    }
    rows_.push_back({name, unit, {value}});
  }
  [[nodiscard]] std::vector<Metric> Medians() const {
    std::vector<Metric> out;
    for (const Row& row : rows_) {
      out.push_back({row.name, row.unit, Median(row.values)});
    }
    return out;
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
};

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The workload's full scale plus the build that measured it, as one JSON
// object line.
void PrintRecord(
    const Workload& workload, std::uint64_t seed, bool tiny, int trace,
    const std::string& git_describe,
    const std::vector<std::pair<std::string, double>>& extra,
    const std::vector<std::pair<std::string, std::vector<double>>>& lists) {
  const ScenarioConfig& c = workload.cells.front();
  std::ostringstream os;
  os << "{\"record\": {\"workload\": " << Quote(workload.name)
     << ", \"scale\": " << Quote(tiny ? "tiny" : "full")
     << ", \"trace\": " << trace << ", \"routers\": [";
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    if (workload.cells[i].seed != c.seed) break;
    os << (i ? ", " : "") << Quote(RouterName(workload.cells[i].router));
  }
  os << "], \"scenario_seeds\": [";
  for (std::size_t i = 0; i < workload.scenario_seeds.size(); ++i) {
    os << (i ? ", " : "") << workload.scenario_seeds[i];
  }
  os << "], \"nodes\": " << c.node_count << ", \"degree\": " << c.degree
     << ", \"pf\": " << Num(c.failure_probability)
     << ", \"pl\": " << Num(c.loss_rate) << ", \"m\": " << c.max_transmissions
     << ", \"topics\": " << c.topic_count << ", \"publish_rate_hz\": "
     << Num(1.0 / c.publish_interval.seconds())
     << ", \"monitor_interval_s\": " << Num(c.monitor_interval.seconds())
     << ", \"sim_seconds\": " << Num(c.sim_time.seconds())
     << ", \"broker_mtbf_s\": " << Num(c.broker_mtbf.seconds())
     << ", \"broker_mttr_s\": " << Num(c.broker_mttr.seconds())
     << ", \"subscription_churn\": " << Num(c.subscription_churn)
     << ", \"adaptive_rto\": " << (c.adaptive_rto ? "true" : "false")
     << ", \"peer_death\": " << (c.peer_death_detection ? "true" : "false")
     << ", \"invariant_checker\": "
     << (c.enable_invariant_checker ? "true" : "false")
     << ", \"seed\": " << seed;
  for (const auto& [key, value] : extra) {
    os << ", " << Quote(key) << ": " << Num(value);
  }
  for (const auto& [key, values] : lists) {
    os << ", " << Quote(key) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << Num(values[i]);
    }
    os << "]";
  }
  os << ", \"git\": " << Quote(git_describe)
     << ", \"build_type\": " << Quote(DCRD_PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << Quote(__VERSION__)
     << ", \"nproc\": " << std::thread::hardware_concurrency() << "}}";
  std::printf("%s\n", os.str().c_str());
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << Quote(metrics[i].name)
       << ": {\"value\": " << Num(metrics[i].value)
       << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string git_describe = "unknown";
};

// Host-speed probe. The host is shared, and its speed drifts by tens of
// per cent over minutes, longer than a run, so even a per-cell minimum
// moves with it. Every repetition also times this fixed kernel — hash-map
// churn and a binary heap, the simulator's own access pattern, compiled
// here and so untouched by changes to the simulator — and the reported
// times are scaled by kReferenceKernelSeconds / (fastest kernel run): they
// read as seconds on a host whose fastest kernel run takes exactly that
// long (the 4-core VM the benchmark was defined on). The raw times are in
// the record line.
constexpr double kReferenceKernelSeconds = 0.0325;

volatile std::uint64_t kernel_sink;  // keeps the kernel's result observable

double ReferenceKernelSeconds() {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(std::size_t{1} << 16);
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64 state
  std::uint64_t sum = 0;
  const auto start = Clock::now();
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto [it, inserted] = map.try_emplace(x & 0x1FFFF, x);
    if (!inserted) {
      sum += it->second;
      map.erase(it);
    }
    heap.push(x);
    if (heap.size() > 4096) heap.pop();
  }
  const double seconds = SecondsSince(start);
  kernel_sink = sum + heap.top();
  return seconds;
}

// Per-cell fastest time over repetitions, plus each repetition's total.
class CellTimes {
 public:
  explicit CellTimes(std::size_t cells)
      : best_(cells, std::numeric_limits<double>::infinity()) {}
  void Add(std::size_t cell, double seconds) {
    best_[cell] = std::min(best_[cell], seconds);
    if (cell == 0) totals_.push_back(0.0);
    totals_.back() += seconds;
  }
  [[nodiscard]] double SumOfBest() const {
    return std::accumulate(best_.begin(), best_.end(), 0.0);
  }
  [[nodiscard]] const std::vector<double>& totals() const { return totals_; }

 private:
  std::vector<double> best_;
  std::vector<double> totals_;
};

// --trace 0: set-up passes, then timed repetitions of the whole workload.
// A time is the sum over cells of each cell's fastest run, scaled by the
// host-speed probe: the work is deterministic, and on a shared host
// interference only ever adds time, so the minimum is the steadiest
// estimate of its cost, and taking it per cell (tens to hundreds of ms)
// lets short quiet moments count. The record line lists the raw sums,
// every repetition's total and every probe.
int RunEndToEnd(const Workload& workload, const Options& options) {
  std::vector<double> kernel_times;
  CellTimes setup_times(workload.cells.size());
  const auto setup_window = Clock::now();
  do {
    kernel_times.push_back(ReferenceKernelSeconds());
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
      ScenarioConfig cell = workload.cells[c];
      cell.sim_time = SimDuration::Zero();
      const auto start = Clock::now();
      (void)RunScenario(cell);
      setup_times.Add(c, SecondsSince(start));
    }
  } while (setup_times.totals().size() < kMinSetupReps ||
           SecondsSince(setup_window) < options.seconds / kSetupShare);

  CellTimes wall_times(workload.cells.size());
  std::vector<RunSummary> first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto window = Clock::now();
  do {
    std::vector<RunSummary> summaries;
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
      // Probe twice a repetition, before its first and its middle cell.
      if (c == 0 || c == workload.cells.size() / 2) {
        kernel_times.push_back(ReferenceKernelSeconds());
      }
      const auto start = Clock::now();
      summaries.push_back(RunScenario(workload.cells[c]));
      wall_times.Add(c, SecondsSince(start));
    }
    attempted += workload.cells.size();
    if (first.empty()) {
      failed += static_cast<std::uint64_t>(CheckCells(workload, summaries));
      first = std::move(summaries);
    } else {
      for (std::size_t c = 0; c < first.size(); ++c) {
        if (!SameSummary(first[c], summaries[c])) {
          ReportFailure(workload.name, workload.cells[c],
                        "repetition differs from the first");
          ++failed;
        }
      }
    }
  } while (SecondsSince(window) < options.seconds);

  // The paper metrics pool every DCRD cell's pairs (RunSummary::Absorb).
  std::uint64_t delivered = 0;
  RunSummary pooled;
  for (std::size_t c = 0; c < first.size(); ++c) {
    delivered += first[c].delivered_pairs;
    if (workload.cells[c].router == RouterKind::kDcrd) {
      pooled.Absorb(first[c]);
    }
  }
  std::sort(pooled.delay_ms_samples.begin(), pooled.delay_ms_samples.end());
  const RunSummary* dcrd = &pooled;
  const double kernel =
      *std::min_element(kernel_times.begin(), kernel_times.end());
  const double host_scale = kReferenceKernelSeconds / kernel;
  const double wall = wall_times.SumOfBest() * host_scale;
  const std::vector<Metric> metrics = {
      {"wall_s", "s", wall},
      {"setup_s", "s", setup_times.SumOfBest() * host_scale},
      {"pairs_per_s", "pairs/s", static_cast<double>(delivered) / wall},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"delivery_ratio", "ratio", dcrd->delivery_ratio()},
      {"qos_ratio", "ratio", dcrd->qos_ratio()},
      {"packets_per_pair", "packets", dcrd->packets_per_subscriber()},
      {"delay_p50_ms", "ms", Percentile(dcrd->delay_ms_samples, 0.50)},
      {"delay_p99_ms", "ms", Percentile(dcrd->delay_ms_samples, 0.99)},
  };
  PrintRecord(workload, options.seed, options.tiny, 0, options.git_describe,
              {{"delivered_pairs", static_cast<double>(delivered)},
               {"delay_samples",
                static_cast<double>(dcrd->delay_ms_samples.size())},
               {"wall_raw_s", wall_times.SumOfBest()},
               {"setup_raw_s", setup_times.SumOfBest()},
               {"kernel_min_s", kernel},
               {"host_scale", host_scale}},
              {{"setup_reps_s", setup_times.totals()},
               {"wall_reps_s", wall_times.totals()},
               {"kernel_s", kernel_times}});
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

double Sec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --trace 1: per repetition, every cell untraced, traced and ring-traced;
// per-layer numbers are summed over cells, then medians over repetitions.
int RunTraced(const Workload& workload, const Options& options) {
  MetricTable table;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int reps = 0;
  std::uint64_t fidelity_cells = 0;
  const auto window = Clock::now();
  do {
    double untraced_s = 0.0;
    double ring_s = 0.0;
    std::vector<TracedResult> traced;
    std::vector<RunSummary> summaries;
    for (const ScenarioConfig& cell : workload.cells) {
      auto start = Clock::now();
      RunSummary reference = RunScenario(cell);
      untraced_s += SecondsSince(start);

      traced.push_back(TracedRun(cell));

      ScenarioConfig ring_cell = cell;
      ring_cell.trace = true;
      start = Clock::now();
      const RunSummary ring = RunScenario(ring_cell);
      ring_s += SecondsSince(start);

      attempted += 1;
      if (!SameSummary(reference, traced.back().summary) ||
          !SameSummary(reference, ring)) {
        ReportFailure(workload.name, cell,
                      "traced summary differs from RunScenario's");
        ++failed;
      } else {
        ++fidelity_cells;
      }
      summaries.push_back(std::move(reference));
    }
    if (reps == 0) {
      failed += static_cast<std::uint64_t>(CheckCells(workload, summaries));
    }
    ++reps;

    // Sum every layer over the workload's cells.
    TracedResult sum;
    std::uint64_t delivered = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t spurious = 0;
    std::uint64_t peer_deaths = 0;
    std::uint64_t resyncs = 0;
    for (std::size_t c = 0; c < traced.size(); ++c) {
      const TracedResult& t = traced[c];
      for (std::size_t l = 0; l < sum.layers.size(); ++l) {
        sum.layers[l].self_ns += t.layers[l].self_ns;
        sum.layers[l].max_ns = std::max(sum.layers[l].max_ns,
                                        t.layers[l].max_ns);
        sum.layers[l].calls += t.layers[l].calls;
      }
      sum.wall_ns += t.wall_ns;
      sum.events += t.events;
      sum.data_attempted += t.data_attempted;
      sum.data_delivered += t.data_delivered;
      sum.ack_attempted += t.ack_attempted;
      sum.health.destinations += t.health.destinations;
      sum.health.sweeps_total += t.health.sweeps_total;
      sum.health.sweeps_max = std::max(sum.health.sweeps_max,
                                       t.health.sweeps_max);
      sum.health.unconverged += t.health.unconverged;
      sum.health.table_entries_max = std::max(sum.health.table_entries_max,
                                              t.health.table_entries_max);
      delivered += t.summary.delivered_pairs;
      retransmissions += t.summary.retransmissions;
      spurious += t.summary.spurious_retransmissions;
      peer_deaths += t.summary.peer_deaths;
      if (workload.cells[c].router == RouterKind::kDcrd) {
        resyncs += t.summary.resyncs_completed;
      }
    }
    const auto self = [&](Layer layer) { return Sec(sum[layer].self_ns); };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double wall = Sec(sum.wall_ns);
    const double cell_self = self(Layer::kCell);
    table.Add("graph.topology_s", "s", self(Layer::kTopology));
    table.Add("sim.workload_s", "s", self(Layer::kWorkload));
    table.Add("sim.checker_s", "s", self(Layer::kChecker));
    table.Add("sim.setup_self_s", "s", self(Layer::kSetup));
    table.Add("sim.finish_s", "s", self(Layer::kFinish));
    table.Add("sim.teardown_s", "s", self(Layer::kTeardown));
    table.Add("net.monitor_s", "s", self(Layer::kMonitor));
    table.Add("net.monitor_calls", "count",
              static_cast<double>(sum[Layer::kMonitor].calls));
    table.Add("net.data_attempted", "count",
              static_cast<double>(sum.data_attempted));
    table.Add("net.data_dropped", "count",
              static_cast<double>(sum.data_attempted - sum.data_delivered));
    table.Add("net.ack_attempted", "count",
              static_cast<double>(sum.ack_attempted));
    table.Add("dcrd.rebuild_s", "s", self(Layer::kDcrdRebuild));
    table.Add("dcrd.rebuild_calls", "count",
              static_cast<double>(sum[Layer::kDcrdRebuild].calls));
    table.Add("dcrd.rebuild_ms_max", "ms",
              1e-6 * static_cast<double>(sum[Layer::kDcrdRebuild].max_ns));
    table.Add("dcrd.destinations", "count",
              static_cast<double>(sum.health.destinations));
    table.Add("dcrd.sweeps_mean", "sweeps",
              ratio(static_cast<double>(sum.health.sweeps_total),
                    static_cast<double>(sum.health.destinations)));
    table.Add("dcrd.sweeps_max", "sweeps", sum.health.sweeps_max);
    table.Add("dcrd.unconverged", "count",
              static_cast<double>(sum.health.unconverged));
    table.Add("dcrd.table_entries", "count",
              static_cast<double>(sum.health.table_entries_max));
    table.Add("dcrd.crash_hooks_s", "s", self(Layer::kDcrdCrash));
    table.Add("dcrd.resyncs_completed", "count",
              static_cast<double>(resyncs));
    table.Add("routing.rebuild_s", "s", self(Layer::kRoutingRebuild));
    table.Add("routing.crash_hooks_s", "s", self(Layer::kRoutingCrash));
    table.Add("routing.publish_s", "s", self(Layer::kPublish));
    table.Add("routing.publish_calls", "count",
              static_cast<double>(sum[Layer::kPublish].calls));
    table.Add("routing.retransmissions", "count",
              static_cast<double>(retransmissions));
    table.Add("routing.spurious_ratio", "ratio",
              ratio(static_cast<double>(spurious),
                    static_cast<double>(retransmissions)));
    table.Add("routing.useful_ratio", "ratio",
              ratio(static_cast<double>(delivered),
                    static_cast<double>(sum.data_attempted)));
    table.Add("routing.peer_deaths", "count",
              static_cast<double>(peer_deaths));
    table.Add("event.loop_self_s", "s", self(Layer::kLoop));
    table.Add("event.events", "count", static_cast<double>(sum.events));
    table.Add("event.ns_per_event", "ns",
              ratio(1e9 * self(Layer::kLoop),
                    static_cast<double>(sum.events)));
    table.Add("bench.health_s", "s", self(Layer::kHealth));
    table.Add("bench.unattributed_s", "s", cell_self);
    table.Add("bench.coverage", "ratio", ratio(wall - cell_self, wall));
    table.Add("bench.traced_wall_s", "s", wall);
    table.Add("bench.untraced_wall_s", "s", untraced_s);
    table.Add("bench.span_overhead", "ratio", ratio(wall, untraced_s) - 1.0);
    table.Add("obs.trace_ratio", "ratio", ratio(ring_s, untraced_s));
  } while (SecondsSince(window) < options.seconds);

  PrintRecord(workload, options.seed, options.tiny, 1, options.git_describe,
              {{"reps", static_cast<double>(reps)},
               {"fidelity_cells", static_cast<double>(fidelity_cells)}},
              {});
  PrintResult(failed == 0, attempted, failed, table.Medians());
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: dcrd_perfbench --workload "
               "ctrl_heavy|data_heavy|crash_churn --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--git_describe TEXT]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace dcrd::perfbench

int main(int argc, char** argv) {
  using namespace dcrd::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (options.trace != 0 && options.trace != 1) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return Usage("--scale takes full or tiny");
      }
      options.tiny = value == "tiny";
    } else if (flag == "--git_describe") {
      options.git_describe = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  const std::optional<Workload> workload =
      MakeWorkload(options.workload, options.seed, options.tiny);
  if (!workload) return Usage("unknown --workload");
  return options.trace == 1 ? RunTraced(*workload, options)
                            : RunEndToEnd(*workload, options);
}
