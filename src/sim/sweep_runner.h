// Deterministic parallel job pool for experiment sweeps.
//
// Every figure is a sweep over one parameter × routers × repetitions, and
// each (x, router, rep) cell is a self-contained simulation: RunScenario
// builds its own engine, network and splittable RNG streams from the cell's
// config alone, so cells are embarrassingly parallel. SweepRunner fans an
// index range over `jobs` worker threads and leaves aggregation to the
// caller, who reduces *by cell index, not completion order* — which is what
// makes output bit-identical for any job count.
//
// Determinism contract (see DESIGN.md §7):
//  * cell i's work must be a pure function of i (derive seeds from the cell,
//    never from thread identity or a shared counter);
//  * cell i writes only to index-i slots of caller-owned storage;
//  * the final reduce walks indices 0..count-1 in order.
// `jobs == 1` runs cells inline on the calling thread in index order — the
// exact serial path the figure binaries had before parallelisation.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace dcrd {

// Resolves a --jobs request: n >= 1 is taken literally; 0 or negative means
// "use every core" (std::thread::hardware_concurrency, at least 1).
int ResolveJobCount(int requested);

// Wall-clock accounting for one pooled run; feeds the --bench_json emitter.
// Timing is measurement only — it never influences scheduling or results.
struct SweepRunStats {
  int jobs = 1;
  std::size_t cells = 0;
  double wall_seconds = 0.0;
  std::vector<double> cell_seconds;  // indexed by cell

  [[nodiscard]] double cells_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(cells) / wall_seconds
                              : 0.0;
  }
};

class SweepRunner {
 public:
  // `jobs` as from ResolveJobCount; values < 1 are clamped to 1.
  explicit SweepRunner(int jobs);

  [[nodiscard]] int jobs() const { return jobs_; }

  // Runs fn(i) for every i in [0, count). fn must be safe to call
  // concurrently for distinct i and must confine its writes to index-i
  // storage. Cells are claimed in index order from an atomic cursor (no
  // work stealing, no reordering of the claim sequence); with jobs() == 1
  // everything runs inline in index order.
  //
  // If any cell throws, the remaining unclaimed cells are abandoned, all
  // workers are joined (no deadlock), and the lowest-indexed failure is
  // rethrown as std::runtime_error carrying `describe(i)` (when provided)
  // and the original exception's message.
  //
  // `stats`, when non-null, receives per-cell and total wall-clock times.
  void Run(std::size_t count, const std::function<void(std::size_t)>& fn,
           const std::function<std::string(std::size_t)>& describe = nullptr,
           SweepRunStats* stats = nullptr) const;

 private:
  int jobs_;
};

}  // namespace dcrd
