// Machine-readable bench records: one JSON object per measured run,
// accumulated into a JSON array file (--bench_json PATH on the figure and
// micro-bench binaries). The records seed the BENCH_*.json perf trajectory:
// every record carries wall-clock, throughput, the job count and `git
// describe`, so future PRs can prove speedups against committed baselines.
//
// Timing fields are measurement only — simulation output stays bit-identical
// for any job count; only these JSON files vary run to run.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep_runner.h"

namespace dcrd {

struct BenchRecord {
  std::string name;          // sweep stem or micro-bench binary name
  std::string git;           // `git describe --always --dirty`, or "unknown"
  std::string utc;           // ISO-8601 record time
  int jobs = 1;
  std::size_t cells = 0;     // simulation cells (or benchmarks) executed
  double wall_seconds = 0.0;
  double cells_per_second = 0.0;
  std::vector<double> cell_seconds;  // per-cell detail; empty = omitted
  // Per-benchmark items/s (micro-bench binaries only; empty = omitted).
  // This is what scripts/bench_gate.py compares against its baseline.
  std::vector<std::pair<std::string, double>> rates;
};

// `git describe --always --dirty` of the working directory's repository;
// "unknown" when git or the repository is unavailable.
std::string GitDescribe();

// Record carrying the stats of one pooled sweep, stamped with GitDescribe()
// and the current UTC time.
BenchRecord MakeBenchRecord(const std::string& name,
                            const SweepRunStats& stats);

// Serialises one record as a JSON object.
void WriteBenchRecordJson(std::ostream& os, const BenchRecord& record);

// Appends `record` to the JSON array in `path`, creating the file (as a
// one-element array) when missing or empty. Returns false with a warning on
// stderr, leaving the file byte-for-byte unchanged, when it cannot be
// read/written or is not exactly one JSON array (JsonCursor-checked).
bool AppendBenchRecord(const std::string& path, const BenchRecord& record);

}  // namespace dcrd
