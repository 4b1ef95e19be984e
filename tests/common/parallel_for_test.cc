#include "common/parallel_for.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

// Thrown by a failing index; carries the index so the rethrow can be
// checked without parsing a message.
struct IndexFailure {
  std::size_t index;
};

TEST(ParallelForTest, WorkerCountIsCappedByIndicesAndThreads) {
  EXPECT_EQ(ParallelWorkers(8, 4), 4U);
  EXPECT_EQ(ParallelWorkers(3, 4), 3U);
  EXPECT_EQ(ParallelWorkers(8, 1), 1U);
  EXPECT_EQ(ParallelWorkers(8, 0), 1U);
  EXPECT_EQ(ParallelWorkers(1, 4), 1U);
  EXPECT_EQ(ParallelWorkers(0, 4), 1U);
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelForTest, SerialPathRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::size_t nested_workers = 0;
  ParallelFor(16, 1, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(worker, 0U);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    nested_workers = ParallelWorkers(8, 4);
  });
  ASSERT_EQ(order.size(), 16U);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // A one-thread loop is no fan-out, so a loop nested in it still fans
  // out (a --jobs 1 sweep's epoch solves get every core).
  EXPECT_EQ(nested_workers, 4U);
}

TEST(ParallelForTest, FanOutFromAPlainThreadUsesSeveralThreads) {
  constexpr std::size_t kIndices = 32;
  std::vector<std::atomic<int>> hits(kIndices);
  std::vector<int> per_worker(4, 0);  // plain ints: one writer per worker
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  // Indices 0 and 1 each wait until both have started, which only two
  // threads running at once can satisfy; the deadline keeps a broken loop
  // from hanging the test.
  std::atomic<int> arrived{0};
  ParallelFor(kIndices, 4, [&](std::size_t i, std::size_t worker) {
    ASSERT_LT(worker, 4U);
    if (i < 2) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    hits[i].fetch_add(1);
    ++per_worker[worker];
    const std::lock_guard<std::mutex> lock(ids_mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(arrived.load(), 2);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  int total = 0;
  for (const int count : per_worker) total += count;
  EXPECT_EQ(total, static_cast<int>(kIndices));
  EXPECT_GE(ids.size(), 2U);
  EXPECT_LE(ids.size(), 4U);
}

TEST(ParallelForTest, FanOutNestedInAPooledWorkerRunsInlineOnThatWorker) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::vector<std::size_t> nested_workers(kOuter, 0);
  std::vector<int> foreign_threads(kOuter, 0);
  std::vector<std::vector<std::size_t>> inner_order(kOuter);
  ParallelFor(kOuter, 4, [&](std::size_t i, std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    nested_workers[i] = ParallelWorkers(kInner, 4);
    ParallelFor(kInner, 4, [&](std::size_t j, std::size_t worker) {
      if (std::this_thread::get_id() != self || worker != 0) {
        ++foreign_threads[i];
      }
      inner_order[i].push_back(j);
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(nested_workers[i], 1U) << i;
    EXPECT_EQ(foreign_threads[i], 0) << i;
    ASSERT_EQ(inner_order[i].size(), kInner) << i;
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(inner_order[i][j], j) << i;
    }
  }
  // The calling thread leaves the fan-out as a plain thread again.
  EXPECT_EQ(ParallelWorkers(kInner, 4), 4U);
}

TEST(ParallelForTest, LowestIndexFailureIsRethrownUnchanged) {
  // Several failing indices: every worker joins and the lowest failing
  // index's own exception comes back; indices are claimed in order, so
  // index 3 has run before any claim stops.
  for (const int threads : {1, 8}) {
    try {
      ParallelFor(64, threads, [](std::size_t i, std::size_t) {
        if (i % 7 == 3) throw IndexFailure{i};
      });
      FAIL() << "expected a failure at " << threads << " threads";
    } catch (const IndexFailure& failure) {
      EXPECT_EQ(failure.index, 3U) << threads << " threads";
    }
  }
}

TEST(ParallelForTest, FailureAbandonsUnclaimedIndices) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(ParallelFor(1000, 1,
                           [&](std::size_t i, std::size_t) {
                             ran.fetch_add(1);
                             if (i == 10) throw std::runtime_error("stop");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 11U);
}

}  // namespace
}  // namespace dcrd
