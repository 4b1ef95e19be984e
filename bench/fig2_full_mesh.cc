// Figure 2 — Performance comparison in fully-meshed networks.
//
// 20 brokers, full mesh, Pl = 1e-4, m = 1; failure probability swept over
// {0, 0.02, 0.04, 0.06, 0.08, 0.10}. Panels: (a) delivery ratio,
// (b) QoS delivery ratio, (c) packets sent per subscriber.
//
// Paper shape to reproduce: DCRD and ORACLE deliver ~100% everywhere; the
// trees decay with Pf (R-Tree above D-Tree); Multipath sits between trees
// and DCRD at roughly double the tree traffic; R-Tree sends exactly one
// packet per subscriber (direct links exist in a full mesh).
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  // --m overrides the retransmission budget (paper default 1) so hop
  // retransmissions appear in traces. A full mesh never exhausts a
  // 19-entry sending list, so upstream reroutes cannot occur there;
  // --degree N sparsifies the overlay to a random degree-N graph for
  // trace walkthroughs that need to see reroute-to-upstream events.
  // Defaults leave the figure untouched.
  const int m = static_cast<int>(flags.GetInt("m", 1));
  const int degree = static_cast<int>(flags.GetInt("degree", 0));
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader("Figure 2: fully-meshed 20-node overlay", scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kFullMesh;
  base.loss_rate = 1e-4;
  base.max_transmissions = m;
  if (degree > 0) {
    base.topology = dcrd::TopologyKind::kRandomDegree;
    base.degree = degree;
  }
  dcrd::figures::ApplyScale(scale, base);

  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "fig2_full_mesh", "Fig.2 full mesh", "Pf", base, scale.routers,
      {0.0, 0.02, 0.04, 0.06, 0.08, 0.10},
      [](double pf, dcrd::ScenarioConfig& config) {
        config.failure_probability = pf;
      });

  dcrd::PrintStandardPanels(std::cout, sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "fig2_full_mesh", sweep);
  return 0;
}
