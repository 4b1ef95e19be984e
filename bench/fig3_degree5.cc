// Figure 3 — Performance comparison in overlay networks with degree 5.
//
// Same sweep as Figure 2 but on a degree-5 random overlay: reduced
// connectivity lengthens paths, so the fixed-route baselines drop ~5%
// relative to the full mesh while DCRD stays within a few percent of
// ORACLE; everyone's packets/subscriber rises.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader("Figure 3: 20-node overlay, degree 5", scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 5;
  base.loss_rate = 1e-4;
  base.max_transmissions = 1;
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "fig3_degree5", "Fig.3 degree-5 overlay", "Pf", base,
      scale.routers, {0.0, 0.02, 0.04, 0.06, 0.08, 0.10},
      [](double pf, dcrd::ScenarioConfig& config) {
        config.failure_probability = pf;
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "fig3_degree5", sweep);
  return 0;
}
