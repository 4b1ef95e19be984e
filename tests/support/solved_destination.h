// One <d,r> destination solved by a DrSolver of its own, for tests that
// need a single destination: `tables` views into `solver`.
#pragma once

#include <vector>

#include "dcrd/dr_computation.h"

namespace dcrd::test {

struct SolvedDestination {
  SolvedDestination(const Graph& graph, const MonitoredView& view,
                    NodeId subscriber, double deadline_us,
                    const std::vector<double>& publisher_dist_us,
                    const DrComputationConfig& config = {})
      : solver(graph, view, config),
        tables(solver.Solve(subscriber, deadline_us, publisher_dist_us)) {}

  DrSolver solver;
  DestinationTables tables;
};

}  // namespace dcrd::test
