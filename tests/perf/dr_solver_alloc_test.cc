// Allocation contract of the <d,r> control plane. Sorting a sending list
// works in place, and a DrSolver builds every list in reused scratch
// buffers, so once a subscriber's shared state exists a destination that
// reuses it allocates nothing and one that solves allocates only its own
// table — the same whether its fixed point settles in a few sweeps or runs
// into the sweep cap. A whole DcrdRouter::Rebuild then costs a small
// constant per topic, per subscriber and per solved destination, never a
// list per (destination, broker).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "dcrd/dr_computation.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
#include "routing/test_harness.h"
#include "sim/workload.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

TEST(DrSolverAllocTest, WarmSortByPolicyIsAllocationFree) {
  // Long enough to leave the small-range insertion sort, with unusable
  // entries that the partition must move behind the usable ones.
  Rng rng(3);
  std::vector<ViaEntry> entries;
  for (std::uint32_t k = 0; k < 40; ++k) {
    entries.push_back(ViaEntry{NodeId(k), LinkId(k),
                               rng.NextDoubleInRange(10'000, 90'000),
                               k % 7 == 0 ? 0.0
                                          : rng.NextDoubleInRange(0.1, 1.0)});
  }
  std::vector<ViaEntry> work = entries;
  SortByPolicy(work, OrderingPolicy::kTheorem1);

  AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    for (const OrderingPolicy policy :
         {OrderingPolicy::kTheorem1, OrderingPolicy::kDelayFirst,
          OrderingPolicy::kReliabilityFirst}) {
      work.assign(entries.begin(), entries.end());  // within capacity
      SortByPolicy(work, policy);
    }
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "SortByPolicy allocated " << delta.bytes << " bytes";
}

// What a solved destination's own table holds: the <d,r> and offset
// arrays and, unless every list is empty, the entries array, each at its
// exact size.
test::AllocCounts TableFootprint(const ListTable& table) {
  test::AllocCounts need;
  need.allocations = table.entries.empty() ? 2 : 3;
  need.bytes = table.dr.size() * sizeof(DR) +
               table.begin.size() * sizeof(std::uint32_t) +
               table.entries.size() * sizeof(Neighbor);
  return need;
}

TEST(DrSolverAllocTest, SolveAllocatesOnlyItsTablesWhateverItsSweepCount) {
  Rng rng(11);
  const Graph graph = RandomConnected(40, 5, rng);
  const FailureSchedule failures(21, 0.1);
  LinkMonitorConfig monitor_config;
  monitor_config.loss_rate = 1e-3;
  LinkMonitor monitor(graph, failures, monitor_config, Rng(8));
  monitor.MeasureAt(SimTime::Zero());
  const MonitoredView& view = monitor.view();
  const DrComputationConfig config;
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));

  DrSolver solver(graph, view, config);
  int reused = 0;  // took the subscriber's unconstrained solve
  int quick = 0;   // solved, converged within a quarter of the cap
  int capped = 0;  // solved, stopped unconverged at the cap
  for (std::uint32_t s = 1; s < graph.node_count(); ++s) {
    const NodeId subscriber(s);
    // The subscriber's first destination builds its shared sweep order and
    // unconstrained solve; the measured ones reuse them.
    (void)solver.Solve(subscriber, 6.0 * dist[s], dist);
    for (const double qos : {1.5, 3.0, 1e6}) {
      AllocProbe probe;
      const DestinationTables tables =
          solver.Solve(subscriber, qos * dist[s], dist);
      const auto delta = probe.delta();
      if (tables.reused) {
        EXPECT_EQ(delta.allocations, 0u)
            << "subscriber " << s << " qos " << qos << " allocated "
            << delta.bytes << " bytes";
        ++reused;
        continue;
      }
      // Beyond its arrays, adding the table to the solver's deque may
      // take a new block and a larger block map.
      const auto need = TableFootprint(tables.per_node.primary_table());
      EXPECT_GE(delta.allocations, need.allocations)
          << "subscriber " << s << " qos " << qos;
      EXPECT_LE(delta.allocations, need.allocations + 2)
          << "subscriber " << s << " qos " << qos << ", "
          << tables.sweeps_used << " sweeps";
      EXPECT_GE(delta.bytes, need.bytes)
          << "subscriber " << s << " qos " << qos;
      if (tables.converged && tables.sweeps_used <= config.max_sweeps / 4) {
        ++quick;
      }
      if (!tables.converged && tables.sweeps_used == config.max_sweeps) {
        ++capped;
      }
    }
  }
  // Reuse and both ends of the sweep range were measured.
  EXPECT_GT(reused, 0);
  EXPECT_GT(quick, 0);
  EXPECT_GT(capped, 0);
}

TEST(DrSolverAllocTest,
     RebuildAllocatesPerTopicSubscriberAndSolvedDestination) {
  // A 40-broker degree-5 overlay with 10 topics at Ps = 0.4 and deadlines
  // 3x the shortest path, as in the paper's scenario.
  Rng rng(5);
  testing::RouterHarness h(RandomConnected(40, 5, rng), 0.06, 1e-3);
  ScenarioConfig workload;
  workload.subscriber_probability_min = 0.4;
  workload.subscriber_probability_max = 0.4;
  Rng workload_rng(23);
  h.subscriptions = GenerateWorkload(h.graph, workload, workload_rng);
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());  // sizes the per-broker state

  std::uint64_t solved_total = 0, destinations_total = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    h.monitor.MeasureAt(SimTime::Zero() + SimDuration::Seconds(300 * epoch));
    AllocProbe probe;
    router.Rebuild(h.monitor.view());
    const auto delta = probe.delta();
    std::uint64_t topics = 0, solved = 0, destinations = 0;
    std::set<std::uint32_t> subscribers;
    for (std::size_t t = 0; t < h.subscriptions.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      ++topics;
      for (const Subscription& sub : h.subscriptions.subscriptions(topic)) {
        ++destinations;
        if (!router.TablesFor(topic, sub.subscriber).reused) ++solved;
        subscribers.insert(sub.subscriber.underlying());
      }
    }
    // Per topic: the publisher's Dijkstra (13 allocations) and the topic's
    // views; per subscriber: its Dijkstra, sweep order, read bounds and
    // table (19); per solved destination: its table (3) and the deque's
    // growth; per rebuild: the solver and the router's dense arrays.
    const std::uint64_t bound =
        16 * topics + 24 * subscribers.size() + 4 * solved + 64;
    EXPECT_LE(delta.allocations, bound)
        << "epoch " << epoch << ": " << topics << " topics, "
        << subscribers.size() << " subscribers, " << solved << " of "
        << destinations << " destinations solved";
    solved_total += solved;
    destinations_total += destinations;
  }
  // Both kinds of destination were rebuilt.
  EXPECT_GT(solved_total, 0u);
  EXPECT_LT(solved_total, destinations_total);
}

}  // namespace
}  // namespace dcrd
