// Allocation contract of the <d,r> control plane. Sorting a sending list
// works in place, and a DrSolver builds every list in one reused scratch
// buffer, so once a subscriber's shared state exists a solve allocates
// exactly the tables it returns — the same whether its fixed point settles
// in a few sweeps or runs into the sweep cap.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "dcrd/dr_computation.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
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

// What the returned tables own: the budget and per-node arrays plus every
// non-empty sending list, each at its exact size.
test::AllocCounts TablesFootprint(const DestinationTables& tables) {
  test::AllocCounts need;
  need.allocations = 2;
  need.bytes = tables.budget_us.size() * sizeof(double) +
               tables.per_node.size() * sizeof(NodeTables);
  for (const NodeTables& node : tables.per_node) {
    for (const auto* list : {&node.primary, &node.fallback}) {
      if (list->empty()) continue;
      ++need.allocations;
      need.bytes += list->size() * sizeof(ViaEntry);
    }
  }
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
  int quick = 0;   // converged within a quarter of the cap
  int capped = 0;  // stopped unconverged at the cap
  for (std::uint32_t s = 1; s < graph.node_count(); ++s) {
    const NodeId subscriber(s);
    // The subscriber's first destination builds its shared sweep order and
    // fallback fixed point; the measured second one reuses them.
    solver.Solve(subscriber, 6.0 * dist[s], dist);
    for (const double qos : {1.5, 3.0}) {
      AllocProbe probe;
      const DestinationTables tables = solver.Solve(subscriber, qos * dist[s],
                                                    dist);
      const auto delta = probe.delta();
      const auto need = TablesFootprint(tables);
      EXPECT_EQ(delta.allocations, need.allocations)
          << "subscriber " << s << " qos " << qos << ", "
          << tables.sweeps_used << " sweeps";
      EXPECT_EQ(delta.bytes, need.bytes)
          << "subscriber " << s << " qos " << qos << ", "
          << tables.sweeps_used << " sweeps";
      if (tables.converged && tables.sweeps_used <= config.max_sweeps / 4) {
        ++quick;
      }
      if (!tables.converged && tables.sweeps_used == config.max_sweeps) {
        ++capped;
      }
    }
  }
  // Both ends of the sweep range were measured.
  EXPECT_GT(quick, 0);
  EXPECT_GT(capped, 0);
}

}  // namespace
}  // namespace dcrd
