// Shared plumbing for the figure-reproduction binaries.
//
// Every figN binary accepts:
//   --paper          full paper scale (10 repetitions, 2 h simulated time)
//   --reps N         override repetition count
//   --seconds S      override simulated seconds
//   --seed S         base seed (rep r runs with seed S+r)
//   --routers a,b    subset of DCRD,R-Tree,D-Tree,ORACLE,Multipath
//   --jobs N         worker threads for the sweep pool (default: all cores;
//                    1 = the historical serial path). Each cell runs on
//                    one thread. Output is bit-identical for any job count.
//   --bench_json P   append wall-clock/throughput records to the JSON
//                    array at P (see sim/bench_json.h)
//   --trace          keep an in-memory flight recorder per cell (postmortem
//                    dumps on invariant violations / crashes)
//   --trace_out P    stream each cell's full trace to
//                    P.<stem>.<cell>.jsonl (implies --trace); inspect with
//                    tools/dcrd_trace
//   --metrics_json P write each cell's metrics registry to
//                    P.<stem>.<cell>.json
//   --timeseries P   sample each cell's metrics registry every simulated
//                    second into a columnar time series — counter deltas,
//                    gauge levels, histogram raw-bucket deltas, per-broker
//                    health, windowed deadline-SLO series — written to
//                    P.<stem>.<cell>.json ("dcrd-timeseries-v1"); render
//                    with tools/dcrd_trace --timeseries
//   --delay_audit P  delay-provenance capture: per cell, stream the full
//                    trace to P.trace.<stem>.<cell>.jsonl and the Theorem-1
//                    model rows to P.model.<stem>.<cell>.jsonl (DCRD cells
//                    only — other routers have no <d,r> model and note that
//                    on stderr). Decompose/audit offline with
//                    tools/dcrd_trace --decompose --audit
//
// Observability never touches stdout or any RNG stream, so the figure
// tables stay byte-identical with or without it (determinism_check.sh
// verifies). Per-cell file names keep parallel sweep workers from writing
// over each other.
//
// Default scale is reduced (2 repetitions x 600 simulated seconds) so the
// whole bench suite finishes in minutes; the series' *shape* is already
// stable at that scale, and --paper reproduces the paper's configuration.
//
// Run information (repetition counts, job counts, CSV/bench notices) goes
// to stderr; stdout carries only the deterministic tables, which is what
// scripts/determinism_check.sh diffs byte-for-byte across job counts.
#pragma once

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/bench_json.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/sweep_runner.h"

namespace dcrd::figures {

struct FigureScale {
  int repetitions = 2;
  SimDuration sim_time = SimDuration::Seconds(600);
  std::uint64_t seed = 1;
  std::vector<RouterKind> routers = {RouterKind::kDcrd, RouterKind::kRTree,
                                     RouterKind::kDTree, RouterKind::kOracle,
                                     RouterKind::kMultipath};
  std::string csv_dir;  // when set (--csv DIR), sweeps also land as CSV
  int jobs = 1;         // resolved by ParseScale; 1 only until then
  std::string bench_json;  // when set (--bench_json PATH), append records
  bool trace = false;       // --trace: in-memory flight recorder per cell
  std::string trace_out;    // --trace_out: JSONL trace file prefix
  std::string metrics_json;  // --metrics_json: metrics file prefix
  std::string timeseries;    // --timeseries: time-series file prefix
  std::string delay_audit;   // --delay_audit: trace+model file prefix
};

inline std::vector<RouterKind> ParseRouters(const std::string& csv) {
  std::vector<RouterKind> routers;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token == "DCRD") routers.push_back(RouterKind::kDcrd);
    else if (token == "R-Tree") routers.push_back(RouterKind::kRTree);
    else if (token == "D-Tree") routers.push_back(RouterKind::kDTree);
    else if (token == "ORACLE") routers.push_back(RouterKind::kOracle);
    else if (token == "Multipath") routers.push_back(RouterKind::kMultipath);
    else std::cerr << "unknown router '" << token << "' ignored\n";
  }
  return routers;
}

inline FigureScale ParseScale(const Flags& flags) {
  FigureScale scale;
  if (flags.GetBool("paper", false)) {
    scale.repetitions = 10;                           // 10 topologies
    scale.sim_time = SimDuration::Seconds(7200);      // two hours
  }
  scale.repetitions =
      static_cast<int>(flags.GetInt("reps", scale.repetitions));
  if (flags.Has("seconds")) {
    scale.sim_time = SimDuration::Seconds(flags.GetInt("seconds", 600));
  }
  scale.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (flags.Has("routers")) {
    scale.routers = ParseRouters(flags.GetString("routers", ""));
  }
  scale.csv_dir = flags.GetString("csv", "");
  scale.jobs = ResolveJobCount(static_cast<int>(flags.GetInt("jobs", 0)));
  scale.bench_json = flags.GetString("bench_json", "");
  scale.trace = flags.GetBool("trace", false);
  scale.trace_out = flags.GetString("trace_out", "");
  scale.metrics_json = flags.GetString("metrics_json", "");
  scale.timeseries = flags.GetString("timeseries", "");
  scale.delay_audit = flags.GetString("delay_audit", "");
  return scale;
}

// True when any observability output was requested on the command line.
inline bool ObservabilityRequested(const FigureScale& scale) {
  return scale.trace || !scale.trace_out.empty() ||
         !scale.metrics_json.empty() || !scale.timeseries.empty() ||
         !scale.delay_audit.empty();
}

// Applies the scale's observability options to one cell's config. `cell`
// distinguishes concurrent sweep cells (router/x/rep) so their trace and
// metrics files never collide.
inline void ApplyObservability(const FigureScale& scale,
                               const std::string& stem,
                               const std::string& cell,
                               ScenarioConfig& config) {
  config.trace =
      scale.trace || !scale.trace_out.empty() || !scale.delay_audit.empty();
  if (!scale.trace_out.empty()) {
    config.trace_out = scale.trace_out + "." + stem + "." + cell + ".jsonl";
  }
  if (!scale.metrics_json.empty()) {
    config.metrics_json =
        scale.metrics_json + "." + stem + "." + cell + ".json";
  }
  if (!scale.timeseries.empty()) {
    config.timeseries_out =
        scale.timeseries + "." + stem + "." + cell + ".json";
  }
  if (!scale.delay_audit.empty()) {
    // The audit needs the trace (observed side) and the model rows
    // (expected side) from the same cell; emit both under one prefix so
    // the dcrd_trace join is a two-argument affair.
    config.trace_out =
        scale.delay_audit + ".trace." + stem + "." + cell + ".jsonl";
    config.delay_audit_out =
        scale.delay_audit + ".model." + stem + "." + cell + ".jsonl";
  }
}

inline void MaybeSaveCsv(const FigureScale& scale, const std::string& stem,
                         const SweepResult& sweep) {
  if (scale.csv_dir.empty()) return;
  const std::string path = SaveSweepCsv(scale.csv_dir, stem, sweep);
  if (!path.empty()) std::cerr << "wrote " << path << "\n";
}

// Appends one bench record for a pooled run when --bench_json is set.
inline void MaybeAppendBench(const FigureScale& scale, const std::string& stem,
                             const SweepRunStats& stats) {
  if (scale.bench_json.empty()) return;
  if (AppendBenchRecord(scale.bench_json, MakeBenchRecord(stem, stats))) {
    std::cerr << "bench record '" << stem << "' appended to "
              << scale.bench_json << "\n";
  }
}

// RunSweep on the scale's pool, with bench accounting under `stem`.
inline SweepResult RunFigureSweep(
    const FigureScale& scale, const std::string& stem,
    const std::string& title, const std::string& x_label,
    const ScenarioConfig& base, const std::vector<RouterKind>& routers,
    const std::vector<double>& x_values,
    const std::function<void(double, ScenarioConfig&)>& configure) {
  // RunSweep sets config.router and config.seed (= base.seed + rep) before
  // calling configure, which is exactly what the per-cell file tag needs.
  std::function<void(double, ScenarioConfig&)> cell_configure = configure;
  if (ObservabilityRequested(scale)) {
    const std::uint64_t base_seed = base.seed;
    cell_configure = [&scale, stem, base_seed, configure](
                         double x, ScenarioConfig& config) {
      const std::uint64_t rep = config.seed - base_seed;
      configure(x, config);
      std::ostringstream cell;
      cell << RouterName(config.router) << ".x" << x << ".rep" << rep;
      ApplyObservability(scale, stem, cell.str(), config);
    };
  }
  SweepRunStats stats;
  SweepResult sweep = RunSweep(title, x_label, base, routers, x_values,
                               cell_configure, scale.repetitions, scale.jobs,
                               &stats);
  MaybeAppendBench(scale, stem, stats);
  return sweep;
}

// RunRepetitions on the scale's pool, with bench accounting under `stem`.
// `make_config(rep)` must set the seed itself (conventionally
// scale.seed + rep).
inline RunSummary RunFigureReps(
    const FigureScale& scale, const std::string& stem,
    const std::function<ScenarioConfig(int)>& make_config) {
  std::function<ScenarioConfig(int)> cell_config = make_config;
  if (ObservabilityRequested(scale)) {
    cell_config = [&scale, stem, make_config](int rep) {
      ScenarioConfig config = make_config(rep);
      std::ostringstream cell;
      cell << RouterName(config.router) << ".rep" << rep;
      ApplyObservability(scale, stem, cell.str(), config);
      return config;
    };
  }
  SweepRunStats stats;
  RunSummary pooled =
      RunRepetitions(scale.repetitions, scale.jobs, cell_config, &stats);
  MaybeAppendBench(scale, stem, stats);
  return pooled;
}

inline void ApplyScale(const FigureScale& scale, ScenarioConfig& config) {
  config.sim_time = scale.sim_time;
  config.seed = scale.seed;
}

inline void PrintHeader(const std::string& figure,
                        const FigureScale& scale) {
  std::cout << "=== " << figure << " ===\n"
            << "repetitions=" << scale.repetitions
            << " simulated=" << scale.sim_time.seconds() << "s"
            << " (use --paper for the 10x7200s paper scale)\n";
  // stderr: stdout must stay byte-identical across --jobs values.
  std::cerr << "jobs=" << scale.jobs << "\n";
}

}  // namespace dcrd::figures
