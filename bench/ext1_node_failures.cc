// Extension experiment 1 — broker-node failures (paper Section V).
//
// "Work is also underway to evaluate DCRD performance in the presence of
// node failures. With node failures there is the potential for simultaneous
// link failures and long outages..."
//
// 20 nodes, degree 8, Pf = 0.02 on links; node failure probability swept.
// A down broker silences all its adjacent links at once (correlated
// failures) and of course cannot deliver to its own subscribers while down,
// so nobody reaches 100% — the question is how gracefully each protocol
// degrades. Expectation: the trees lose whole subtrees behind a dead
// broker; DCRD routes around dead *intermediate* brokers and tracks
// ORACLE, whose remaining gap is exactly the down-subscriber mass.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  dcrd::figures::PrintHeader(
      "Ext.1: node failures, 20 nodes, degree 8, link Pf=0.02", scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 8;
  base.failure_probability = 0.02;
  base.loss_rate = 1e-4;
  base.node_outage_epochs =
      static_cast<int>(flags.GetInt("outage_epochs", 5));
  flags.ExitOnUnqueried();
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "ext1_node_failures", "Ext.1 node failures", "node Pf", base,
      scale.routers, {0.0, 0.01, 0.02, 0.04, 0.06},
      [](double pf, dcrd::ScenarioConfig& config) {
        config.node_failure_probability = pf;
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext1_node_failures", sweep);
  return 0;
}
