// Figure 6 — Effect of the QoS delay requirement.
//
// 20 nodes, degree 8, Pf = 0.06; the deadline is `factor` times the
// shortest-path delay with factor swept over {1.5, 2, 3, 4, 5, 6}.
//
// Paper shape: DCRD gains ~4% going 1.5->2 and ~4% more going 2->3,
// reaching ~100% by factor 4; the trees barely move (they fail on
// failures, not deadlines); Multipath *beats* DCRD at the tightest factor
// 1.5 (pre-duplicated paths pay off when there is no time to retry) and
// loses from factor ~2 on.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Figure 6: QoS requirement factor, 20 nodes, degree 8, Pf=0.06",
      scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 8;
  base.failure_probability = 0.06;
  base.loss_rate = 1e-4;
  base.max_transmissions = 1;
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "fig6_qos_requirement", "Fig.6 QoS requirement", "factor", base,
      scale.routers, {1.5, 2, 3, 4, 5, 6},
      [](double factor, dcrd::ScenarioConfig& config) {
        config.qos_factor = factor;
      });

  dcrd::PrintTable(std::cout, sweep, "QoS Delivery Ratio",
                   [](const dcrd::RunSummary& s) { return s.qos_ratio(); });
  dcrd::figures::MaybeSaveCsv(csv_dir, "fig6_qos_requirement", sweep);
  return 0;
}
