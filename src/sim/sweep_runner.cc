#include "sim/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>


namespace dcrd {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int ResolveJobCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

void SweepRunner::Run(std::size_t count,
                      const std::function<void(std::size_t)>& fn,
                      const std::function<std::string(std::size_t)>& describe,
                      SweepRunStats* stats) const {
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<double> cell_seconds(count, 0.0);
  // One slot per cell: workers write only their own index, so no lock is
  // needed and the lowest-indexed failure is recoverable after the join.
  std::vector<std::exception_ptr> failures(count);

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abandon{false};
  const auto worker = [&] {
    while (!abandon.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const auto cell_start = std::chrono::steady_clock::now();
      try {
        fn(i);
      } catch (...) {
        failures[i] = std::current_exception();
        abandon.store(true, std::memory_order_relaxed);
      }
      cell_seconds[i] = SecondsSince(cell_start);
    }
  };

  const std::size_t thread_count =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), count);
  if (thread_count <= 1) {
    worker();  // inline: today's serial path, index order guaranteed
  } else {
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (std::size_t t = 0; t < thread_count; ++t) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) thread.join();
  }

  if (stats != nullptr) {
    stats->jobs = jobs_;
    stats->cells = count;
    stats->wall_seconds = SecondsSince(run_start);
    stats->cell_seconds = std::move(cell_seconds);
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (!failures[i]) continue;
    std::string message;
    try {
      std::rethrow_exception(failures[i]);
    } catch (const std::exception& e) {
      message = e.what();
    } catch (...) {
      message = "unknown exception";
    }
    const std::string label =
        describe ? describe(i) : "#" + std::to_string(i);
    throw std::runtime_error("sweep cell " + label + " failed: " + message);
  }
}

}  // namespace dcrd
