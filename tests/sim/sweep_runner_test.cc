#include "sim/sweep_runner.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace dcrd {
namespace {

TEST(SweepRunnerTest, ResolveJobCountTakesPositiveLiterally) {
  EXPECT_EQ(ResolveJobCount(1), 1);
  EXPECT_EQ(ResolveJobCount(7), 7);
}

TEST(SweepRunnerTest, ResolveJobCountDefaultsToHardware) {
  EXPECT_GE(ResolveJobCount(0), 1);
  EXPECT_GE(ResolveJobCount(-3), 1);
}

TEST(SweepRunnerTest, RunsEveryCellExactlyOnce) {
  SweepRunner runner(4);
  std::vector<std::atomic<int>> hits(64);
  runner.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(SweepRunnerTest, SerialPathRunsInIndexOrder) {
  SweepRunner runner(1);
  std::vector<std::size_t> order;
  runner.Run(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16U);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SweepRunnerTest, OrderedAggregationUnderAdversarialCompletionOrder) {
  // Early cells sleep longest, so under parallelism high indices finish
  // first — the aggregation must still come out indexed, not
  // completion-ordered.
  constexpr std::size_t kCells = 12;
  SweepRunner runner(4);
  std::vector<std::size_t> results(kCells, 0);
  std::vector<std::size_t> completion;
  std::mutex completion_mutex;
  runner.Run(kCells, [&](std::size_t i) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((kCells - i) * 5));
    results[i] = i * i;
    const std::lock_guard<std::mutex> lock(completion_mutex);
    completion.push_back(i);
  });
  for (std::size_t i = 0; i < kCells; ++i) EXPECT_EQ(results[i], i * i);
  // Sanity: with 4 workers and inverted sleeps, at least one cell must have
  // completed out of index order (otherwise the test is not adversarial).
  if (std::thread::hardware_concurrency() > 1) {
    bool out_of_order = false;
    for (std::size_t i = 1; i < completion.size(); ++i) {
      if (completion[i] < completion[i - 1]) out_of_order = true;
    }
    EXPECT_TRUE(out_of_order);
  }
}

TEST(SweepRunnerTest, ExceptionInCellPropagatesWithCellLabel) {
  SweepRunner runner(4);
  try {
    runner.Run(
        32,
        [&](std::size_t i) {
          if (i == 5) throw std::runtime_error("boom in cell body");
        },
        [](std::size_t i) { return "(cell " + std::to_string(i) + ")"; });
    FAIL() << "expected the sweep to rethrow the cell failure";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("(cell 5)"), std::string::npos) << message;
    EXPECT_NE(message.find("boom in cell body"), std::string::npos)
        << message;
  }
}

TEST(SweepRunnerTest, LowestIndexedFailureWinsAndNoDeadlock) {
  // Several failing cells: the rethrow names the lowest index, and the
  // call returns (joins all workers) rather than hanging.
  SweepRunner runner(8);
  try {
    runner.Run(64, [&](std::size_t i) {
      if (i % 7 == 3) {
        throw std::runtime_error("fail " + std::to_string(i));
      }
    });
    FAIL() << "expected a failure";
  } catch (const std::runtime_error& e) {
    // Lowest failing index overall is 3; cells before the abort flag flips
    // always include it because indices are claimed in order.
    EXPECT_NE(std::string(e.what()).find("fail 3"), std::string::npos)
        << e.what();
  }
}

TEST(SweepRunnerTest, StatsCoverEveryCell) {
  SweepRunner runner(2);
  SweepRunStats stats;
  runner.Run(
      10, [](std::size_t) {}, nullptr, &stats);
  EXPECT_EQ(stats.jobs, 2);
  EXPECT_EQ(stats.cells, 10U);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.cell_seconds.size(), 10U);
  EXPECT_GE(stats.cells_per_second(), 0.0);
}

ScenarioConfig TinyBase() {
  ScenarioConfig config;
  config.node_count = 8;
  config.topology = TopologyKind::kRandomDegree;
  config.degree = 3;
  config.topic_count = 2;
  config.failure_probability = 0.05;
  config.sim_time = SimDuration::Seconds(10);
  config.seed = 7;
  return config;
}

void ExpectSummariesIdentical(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.qos_pairs, b.qos_pairs);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.ack_transmissions, b.ack_transmissions);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.messages_published, b.messages_published);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.spurious_retransmissions, b.spurious_retransmissions);
  // Sample vectors must match exactly *including order* — the ordered
  // reduce absorbs repetitions in rep order for any job count.
  EXPECT_EQ(a.lateness_ratios, b.lateness_ratios);
  EXPECT_EQ(a.delay_ms_samples, b.delay_ms_samples);
}

TEST(SweepRunnerTest, ParallelSweepBitIdenticalToSerial) {
  const std::vector<RouterKind> routers = {RouterKind::kDcrd,
                                           RouterKind::kDTree};
  const std::vector<double> xs = {0.0, 0.08};
  const auto configure = [](double pf, ScenarioConfig& config) {
    config.failure_probability = pf;
  };
  const SweepResult serial = RunSweep("t", "Pf", TinyBase(), routers, xs,
                                      configure, /*repetitions=*/2,
                                      /*jobs=*/1);
  const SweepResult parallel = RunSweep("t", "Pf", TinyBase(), routers, xs,
                                        configure, /*repetitions=*/2,
                                        /*jobs=*/4);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(serial.points[p].x, parallel.points[p].x);
    ASSERT_EQ(serial.points[p].per_router.size(),
              parallel.points[p].per_router.size());
    for (std::size_t r = 0; r < serial.points[p].per_router.size(); ++r) {
      ExpectSummariesIdentical(serial.points[p].per_router[r],
                               parallel.points[p].per_router[r]);
    }
  }
}

TEST(SweepRunnerTest, RunRepetitionsMatchesSerialAbsorbLoop) {
  const auto make_config = [](int rep) {
    ScenarioConfig config = TinyBase();
    config.seed = 7 + static_cast<std::uint64_t>(rep);
    return config;
  };
  RunSummary serial;
  for (int rep = 0; rep < 3; ++rep) {
    serial.Absorb(RunScenario(make_config(rep)));
  }
  const RunSummary parallel = RunRepetitions(3, /*jobs=*/3, make_config);
  ExpectSummariesIdentical(serial, parallel);
}

}  // namespace
}  // namespace dcrd
