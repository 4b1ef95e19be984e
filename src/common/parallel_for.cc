#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dcrd {

namespace {

// Set while this thread runs a fan-out's body (see the nesting rule).
thread_local bool tls_fan_out_worker = false;

}  // namespace

int HardwareThreads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

std::size_t ParallelWorkers(std::size_t count, int threads) {
  if (tls_fan_out_worker || threads <= 1 || count <= 1) return 1;
  return std::min(static_cast<std::size_t>(threads), count);
}

void ParallelFor(
    std::size_t count, int threads,
    const std::function<void(std::size_t index, std::size_t worker)>& body) {
  const std::size_t workers = ParallelWorkers(count, threads);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abandon{false};
  std::mutex failure_mutex;
  std::size_t failed_index = count;
  std::exception_ptr failure;
  const auto work = [&](std::size_t worker) {
    while (!abandon.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (i < failed_index) {
          failed_index = i;
          failure = std::current_exception();
        }
        abandon.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (workers == 1) {
    work(0);  // inline: the serial path, index order guaranteed
  } else {
    // The calling thread is worker 0; the others get a thread each.
    const auto pooled = [&work](std::size_t worker) {
      tls_fan_out_worker = true;
      work(worker);
      tls_fan_out_worker = false;
    };
    std::vector<std::thread> threads_started;
    threads_started.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      try {
        threads_started.emplace_back(pooled, w);
      } catch (...) {
        break;  // a thread that cannot start leaves its share to the rest
      }
    }
    pooled(0);
    for (std::thread& thread : threads_started) thread.join();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dcrd
