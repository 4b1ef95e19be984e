// Figure 5 — Effect of network size: N in {10,20,40,80,120,160}, degree 8,
// Pf = 0.06.
//
// Paper shape: every protocol degrades with size (fixed degree means a
// growing diameter and more hops per delivery); DCRD stays within ~5% of
// ORACLE on QoS while spending ~33% more packets, and its traffic overhead
// over the trees grows toward ~60% at N=160 — still under Multipath.
//
// Note: the default reduced scale trims simulated time; at N=160 the DCRD
// table rebuild is the dominant cost, so --paper runs take a while.
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  if (!flags.Has("seconds") && !flags.GetBool("paper", false)) {
    scale.sim_time = dcrd::SimDuration::Seconds(300);  // N=160 is heavy
  }
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader("Figure 5: network size, degree 8, Pf=0.06",
                             scale);

  dcrd::ScenarioConfig base;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 8;
  base.failure_probability = 0.06;
  base.loss_rate = 1e-4;
  base.max_transmissions = 1;
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "fig5_network_size", "Fig.5 network size", "nodes", base,
      scale.routers, {10, 20, 40, 80, 120, 160},
      [](double nodes, dcrd::ScenarioConfig& config) {
        config.node_count = static_cast<std::size_t>(nodes);
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "fig5_network_size", sweep);
  return 0;
}
