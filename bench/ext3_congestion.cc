// Extension experiment 3 — congestion (finite link bandwidth).
//
// The paper's introduction motivates DCRD with "failed or highly congested"
// links but the evaluation models failures only. Here every link serialises
// data packets (fixed per-packet occupancy) and the publish rate is swept,
// so queues build on popular links and queuing delay eats the deadline.
//
// Expectation: Multipath congests first (it injects ~2x the packets, some
// of its own duplicates queuing behind each other); the trees concentrate
// everything on few links; DCRD's ACK-timeout machinery detects queue
// delay exactly like a failure and spills onto alternate links, so it
// degrades last — but note that past saturation DCRD's timeouts fire for
// *every* hop and its retries amplify the overload (a genuine congestion-
// collapse mode; rate caps stay below it here, and the deadline_explorer
// example is the place to poke at the cliff interactively).
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  dcrd::figures::PrintHeader(
      "Ext.3: congestion, 20 nodes, degree 5, per-packet link occupancy "
      "10 ms, publish rate swept",
      scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 5;
  base.failure_probability = 0.0;  // isolate congestion from failures
  base.loss_rate = 1e-4;
  base.link_serialization =
      dcrd::SimDuration::Millis(flags.GetInt("serialization_ms", 10));
  flags.ExitOnUnqueried();
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "ext3_congestion", "Ext.3 congestion", "pkts/s per publisher",
      base, scale.routers, {1, 2, 3, 4, 5},
      [](double rate, dcrd::ScenarioConfig& config) {
        config.publish_interval =
            dcrd::SimDuration::FromSecondsF(1.0 / rate);
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext3_congestion", sweep);
  return 0;
}
