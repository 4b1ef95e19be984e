// Extension experiment 5 — subscription churn.
//
// The overlay-multicast literature the paper builds on ([7], [8]) is
// largely about handling subscribers joining and leaving; the paper itself
// evaluates a static population. Here every monitoring epoch replaces each
// subscription with probability `churn` by a subscription from a fresh
// broker, and the epoch interval is shortened to 30 s so churn actually
// bites mid-run.
//
// Expectation: all protocols lose a little (messages published just before
// a join are not yet routed toward the joiner), but ranking is preserved —
// DCRD's tables rebuild at the same epochs the trees do, so churn is not a
// differentiator the way failures are.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Ext.5: subscription churn, 20 nodes, degree 8, Pf=0.04, epoch 30s",
      scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 8;
  base.failure_probability = 0.04;
  base.loss_rate = 1e-4;
  base.monitor_interval = dcrd::SimDuration::Seconds(30);
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "ext5_churn", "Ext.5 churn", "churn/epoch", base, scale.routers,
      {0.0, 0.1, 0.2, 0.4},
      [](double churn, dcrd::ScenarioConfig& config) {
        config.subscription_churn = churn;
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext5_churn", sweep);
  return 0;
}
