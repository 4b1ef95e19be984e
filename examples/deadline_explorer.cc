// Deadline explorer: a direct look at DCRD's <d,r> machinery.
//
// Instead of running a full simulation, this example builds one overlay,
// computes the DCRD tables for a chosen (publisher, subscriber, deadline)
// and dumps every broker's sending list — expected delay d, delivery ratio
// r, the Theorem-1 d/r sort keys, and the per-node delay budget D_XS. Use
// it to see how tightening the deadline prunes the lists until rerouting
// has nowhere to go.
//
//   ./deadline_explorer [--nodes 12] [--degree 4] [--qos 3.0] [--pf 0.06]
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "dcrd/dr_computation.h"
#include "graph/shortest_path.h"
#include "graph/topology.h"
#include "net/link_monitor.h"
#include "net/failure_schedule.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const std::size_t nodes =
      static_cast<std::size_t>(flags.GetInt("nodes", 12));
  const std::size_t degree =
      static_cast<std::size_t>(flags.GetInt("degree", 4));
  const double qos_factor = flags.GetDouble("qos", 3.0);
  const double pf = flags.GetDouble("pf", 0.06);

  dcrd::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 3)));
  flags.ExitOnUnqueried();
  dcrd::Rng topo_rng = rng.Fork("topology");
  const dcrd::Graph graph = dcrd::RandomConnected(nodes, degree, topo_rng);

  const dcrd::FailureSchedule failures(rng.Fork("failures")(), pf);
  dcrd::LinkMonitorConfig monitor_config;
  monitor_config.loss_rate = 1e-4;
  dcrd::LinkMonitor monitor(graph, failures, monitor_config,
                            rng.Fork("probes"));
  monitor.MeasureAt(dcrd::SimTime::Zero());

  const dcrd::NodeId publisher(0);
  const dcrd::NodeId subscriber(
      static_cast<dcrd::NodeId::underlying_type>(nodes - 1));
  const dcrd::PathTree true_tree = dcrd::ShortestDelayTree(graph, publisher);
  const double shortest_ms =
      true_tree.distance[subscriber.underlying()].millis();
  const double deadline_us = shortest_ms * 1000.0 * qos_factor;

  std::cout << "overlay: " << nodes << " brokers, degree " << degree
            << ", publisher " << publisher << ", subscriber " << subscriber
            << "\nshortest-path delay " << shortest_ms << " ms; deadline "
            << deadline_us / 1000.0 << " ms (factor " << qos_factor
            << ")\n\n";

  const std::vector<double> publisher_dist =
      dcrd::MonitoredDistancesFrom(graph, monitor.view(), publisher);
  dcrd::DrComputationConfig computation;
  dcrd::DrSolver solver(graph, monitor.view(), computation);
  const dcrd::DestinationTables tables =
      solver.Solve(subscriber, deadline_us, publisher_dist);
  const std::vector<double> budgets =
      dcrd::DeadlineBudgets(deadline_us, publisher_dist, subscriber);

  std::cout << "<d,r> converged in " << tables.sweeps_used << " sweeps\n\n";
  for (std::size_t v = 0; v < nodes; ++v) {
    const dcrd::NodeId node(static_cast<dcrd::NodeId::underlying_type>(v));
    const dcrd::NodeTables nt = tables.per_node[v];
    std::cout << node << "  budget D_XS=" << std::setprecision(4)
              << budgets[v] / 1000.0 << "ms  d="
              << (nt.dr.reachable() ? nt.dr.d_us / 1000.0 : -1.0)
              << "ms r=" << nt.dr.r << "\n";
    if (node == subscriber) {
      std::cout << "    (destination)\n";
      continue;
    }
    std::cout << "    sending list:";
    for (const dcrd::Neighbor& hop : nt.primary) {
      const dcrd::ViaEntry entry =
          dcrd::ViaEntryOf(tables.per_node.primary_table(), hop,
                           monitor.view(), computation.max_transmissions);
      std::cout << "  " << entry.neighbor << "(d/r="
                << entry.d_via_us / entry.r_via / 1000.0 << ")";
    }
    if (nt.primary.empty()) std::cout << "  <empty>";
    // The fallback walk passes over the primary neighbours; list the rest.
    std::vector<dcrd::NodeId> fallback;
    for (const dcrd::Neighbor& hop : nt.fallback) {
      if (std::none_of(nt.primary.begin(), nt.primary.end(),
                       [&](const dcrd::Neighbor& p) {
                         return p.peer == hop.peer;
                       })) {
        fallback.push_back(hop.peer);
      }
    }
    if (!fallback.empty()) {
      std::cout << "  | fallback:";
      for (const dcrd::NodeId peer : fallback) std::cout << "  " << peer;
    }
    std::cout << "\n";
  }
  return 0;
}
