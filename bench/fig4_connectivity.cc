// Figure 4 — Performance with different connectivities (node degree 3..10)
// at Pf = 0.06.
//
// Paper shape: for degree >= 5 DCRD delivers >96% within deadline, ~3%
// under ORACLE; at degree 4 DCRD's QoS ratio dips to ~94%; at degree 3
// every protocol collapses below 85% because connected failure-free paths
// within the budget often do not exist.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Figure 4: 20-node overlay, degree swept, Pf=0.06", scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.failure_probability = 0.06;
  base.loss_rate = 1e-4;
  base.max_transmissions = 1;
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "fig4_connectivity", "Fig.4 connectivity", "degree", base,
      scale.routers, {3, 4, 5, 6, 7, 8, 9, 10},
      [](double degree, dcrd::ScenarioConfig& config) {
        config.degree = static_cast<std::size_t>(degree);
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "fig4_connectivity", sweep);
  return 0;
}
