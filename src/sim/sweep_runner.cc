#include "sim/sweep_runner.h"

#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>

#include "common/parallel_for.h"

namespace dcrd {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int ResolveJobCount(int requested) {
  return requested >= 1 ? requested : HardwareThreads();
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

void SweepRunner::Run(std::size_t count,
                      const std::function<void(std::size_t)>& fn,
                      const std::function<std::string(std::size_t)>& describe,
                      SweepRunStats* stats) const {
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<double> cell_seconds(count, 0.0);
  // A failing cell carries its index out of the loop, so the label is
  // formatted on this thread once every worker has joined.
  struct CellFailure {
    std::size_t index;
    std::string message;
  };
  std::optional<CellFailure> failed;
  try {
    ParallelFor(count, jobs_, [&](std::size_t i, std::size_t) {
      const auto cell_start = std::chrono::steady_clock::now();
      std::optional<std::string> error;
      try {
        fn(i);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      cell_seconds[i] = SecondsSince(cell_start);
      if (error) throw CellFailure{i, std::move(*error)};
    });
  } catch (const CellFailure& failure) {
    failed = failure;
  }

  if (stats != nullptr) {
    stats->jobs = jobs_;
    stats->cells = count;
    stats->wall_seconds = SecondsSince(run_start);
    stats->cell_seconds = std::move(cell_seconds);
  }

  if (failed) {
    const std::size_t i = failed->index;
    const std::string label = describe ? describe(i) : "#" + std::to_string(i);
    throw std::runtime_error("sweep cell " + label +
                             " failed: " + failed->message);
  }
}

}  // namespace dcrd
