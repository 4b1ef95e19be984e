// Extension experiment 6 — control-plane cost of the distributed <d,r>
// computation (paper Section III-B, run as a real protocol).
//
// The paper notes Eq. 3 is Θ(n) per node but never reports what the
// distributed recursion costs the network. Here the gossip runs literally
// over the simulated overlay: one subscriber per run, updates carried as
// control messages paying link delay. Reported per overlay size:
// convergence latency (time of the last <d,r> change), control messages
// per (subscriber, epoch), and messages per broker — the numbers a
// deployment would budget for each subscription and each monitoring epoch.
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "dcrd/distributed_dr.h"
#include "graph/topology.h"
#include "net/link_monitor.h"
#include "sim/bench_json.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/stats.h"
#include "sim/sweep_runner.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const int repetitions = static_cast<int>(flags.GetInt("reps", 5));
  const std::size_t degree =
      static_cast<std::size_t>(flags.GetInt("degree", 8));
  const double threshold_us = flags.GetDouble("threshold_us", 50.0);
  const std::int64_t e2e_seconds = flags.GetInt("seconds", 300);
  const int jobs =
      dcrd::ResolveJobCount(static_cast<int>(flags.GetInt("jobs", 0)));
  const std::string bench_json = flags.GetString("bench_json", "");
  // Observability knobs for the end-to-end section (the gossip-only section
  // drives the scheduler directly and has no scenario engine to trace).
  const bool trace = flags.GetBool("trace", false);
  const std::string trace_out = flags.GetString("trace_out", "");
  const std::string metrics_json = flags.GetString("metrics_json", "");
  flags.ExitOnUnqueried();
  std::cerr << "jobs=" << jobs << "\n";
  const auto append_bench = [&](const std::string& stem,
                                const dcrd::SweepRunStats& stats) {
    if (bench_json.empty()) return;
    dcrd::AppendBenchRecord(bench_json, dcrd::MakeBenchRecord(stem, stats));
  };

  std::cout << "=== Ext.6: distributed <d,r> control plane, degree "
            << degree << ", update threshold " << threshold_us << "us ===\n\n"
            << std::left << std::setw(8) << "nodes" << std::right
            << std::setw(16) << "converge ms" << std::setw(16)
            << "updates total" << std::setw(16) << "updates/broker"
            << "\n";

  for (const std::size_t nodes : {10U, 20U, 40U, 80U, 160U}) {
    // One gossip convergence run per repetition; cells are independent, so
    // they fan over the job pool and land in rep-indexed slots.
    std::vector<double> converge_ms(static_cast<std::size_t>(repetitions));
    std::vector<double> updates(static_cast<std::size_t>(repetitions));
    dcrd::SweepRunStats stats;
    dcrd::SweepRunner runner(jobs);
    runner.Run(
        static_cast<std::size_t>(repetitions),
        [&](std::size_t rep) {
          dcrd::Rng rng(100 + static_cast<std::uint64_t>(rep));
          dcrd::Rng topo_rng = rng.Fork("topology");
          const dcrd::Graph graph =
              dcrd::RandomConnected(nodes, degree, topo_rng);
          const dcrd::FailureSchedule failures(rng.Fork("failures")(), 0.0);
          dcrd::LinkMonitor monitor(graph, failures,
                                    dcrd::LinkMonitorConfig{},
                                    rng.Fork("probes"));
          monitor.MeasureAt(dcrd::SimTime::Zero());

          const dcrd::NodeId publisher(0);
          const dcrd::NodeId subscriber(
              static_cast<dcrd::NodeId::underlying_type>(nodes - 1));
          const auto dist = dcrd::MonitoredDistancesFrom(
              graph, monitor.view(), publisher);
          // Deadline 3x the monitored shortest delay (Sec. IV-A).
          const std::vector<double> budgets = dcrd::DeadlineBudgets(
              3.0 * dist[subscriber.underlying()], dist, subscriber);

          const dcrd::LiftedAdjacency adjacency(graph, monitor.view(),
                                                /*max_transmissions=*/1);
          dcrd::Scheduler scheduler;
          dcrd::OverlayNetwork network(graph, scheduler, failures, 0.0,
                                       dcrd::Rng(7));
          dcrd::DistributedDrConfig config;
          config.update_threshold_us = threshold_us;
          auto protocol = std::make_shared<dcrd::DistributedDrComputation>(
              network, subscriber, adjacency, budgets, config);
          protocol->Start();
          scheduler.Run();
          converge_ms[rep] = protocol->last_change().micros() / 1e3;
          updates[rep] = static_cast<double>(protocol->updates_sent());
        },
        nullptr, &stats);
    append_bench("ext6:gossip_n" + std::to_string(nodes), stats);
    std::cout << std::left << std::setw(8) << nodes << std::right
              << std::fixed << std::setprecision(1) << std::setw(16)
              << dcrd::Mean(converge_ms) << std::setw(16) << std::setprecision(0)
              << dcrd::Mean(updates) << std::setw(16) << std::setprecision(1)
              << dcrd::Mean(updates) / static_cast<double>(nodes) << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "\n(per subscriber per monitoring epoch; multiply by "
               "subscriber count and divide by the 300 s epoch for a rate)\n";

  // End-to-end: the full DCRD router with its control plane live
  // (DcrdConfig::use_distributed_computation) against the centralized
  // solver, same seeds, 20 nodes, degree 8, Pf = 0.06.
  std::cout << "\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(12) << "delivery" << std::setw(12) << "QoS"
            << std::setw(14) << "pkts/sub" << std::setw(16) << "ctl msgs"
            << "\n";
  for (const bool distributed : {false, true}) {
    dcrd::SweepRunStats stats;
    const dcrd::RunSummary pooled = dcrd::RunRepetitions(
        repetitions, jobs,
        [&](int rep) {
          dcrd::ScenarioConfig config;
          config.router = dcrd::RouterKind::kDcrd;
          config.dcrd_distributed = distributed;
          config.node_count = 20;
          config.topology = dcrd::TopologyKind::kRandomDegree;
          config.degree = degree;
          config.failure_probability = 0.06;
          config.loss_rate = 1e-4;
          config.sim_time = dcrd::SimDuration::Seconds(e2e_seconds);
          config.seed = 1 + static_cast<std::uint64_t>(rep);
          config.trace = trace || !trace_out.empty();
          const std::string cell = std::string("ext6_control_plane.") +
                                   (distributed ? "gossip" : "solver") +
                                   ".rep" + std::to_string(rep);
          if (!trace_out.empty()) {
            config.trace_out = trace_out + "." + cell + ".jsonl";
          }
          if (!metrics_json.empty()) {
            config.metrics_json = metrics_json + "." + cell + ".json";
          }
          return config;
        },
        &stats);
    append_bench(distributed ? "ext6:e2e_gossip" : "ext6:e2e_solver", stats);
    std::cout << std::left << std::setw(14)
              << (distributed ? "gossip" : "solver") << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << pooled.delivery_ratio() << std::setw(12)
              << pooled.qos_ratio() << std::setw(14)
              << pooled.packets_per_subscriber() << std::setw(16)
              << pooled.control_transmissions << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  return 0;
}
