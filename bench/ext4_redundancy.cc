// Extension experiment 4 — the redundancy/traffic trade-off of Multipath.
//
// The paper fixes Multipath at two paths; this sweep generalises it to
// k in {1,2,3,4} parallel routes per subscriber (k=1 is a "best path only"
// RON-style baseline, larger k approximates FEC-grade redundancy) and asks
// where duplicating stops paying. DCRD is printed alongside as the
// adaptive alternative: the headline is that DCRD reaches multi-path
// delivery ratios at a fraction of even k=2's traffic.
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Ext.4: Multipath redundancy sweep, 20 nodes, degree 8, Pf=0.08",
      scale);

  const auto run_pooled = [&](dcrd::RouterKind router, std::size_t paths) {
    const std::string stem = router == dcrd::RouterKind::kDcrd
                                 ? std::string("ext4:dcrd")
                                 : "ext4:multipath_k" + std::to_string(paths);
    return dcrd::figures::RunFigureReps(
        scale, stem, [&scale, router, paths](int rep) {
          dcrd::ScenarioConfig config;
          config.router = router;
          config.multipath_path_count = paths;
          config.node_count = 20;
          config.topology = dcrd::TopologyKind::kRandomDegree;
          config.degree = 8;
          config.failure_probability = 0.08;
          config.loss_rate = 1e-4;
          config.sim_time = scale.sim_time;
          config.seed = scale.seed + static_cast<std::uint64_t>(rep);
          return config;
        });
  };

  std::cout << "\n"
            << std::left << std::setw(16) << "variant" << std::right
            << std::setw(12) << "delivery" << std::setw(12) << "QoS"
            << std::setw(14) << "pkts/sub" << "\n";
  for (const std::size_t paths : {1U, 2U, 3U, 4U}) {
    const dcrd::RunSummary pooled =
        run_pooled(dcrd::RouterKind::kMultipath, paths);
    std::cout << std::left << std::setw(16)
              << ("Multipath k=" + std::to_string(paths)) << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << pooled.delivery_ratio() << std::setw(12)
              << pooled.qos_ratio() << std::setw(14)
              << pooled.packets_per_subscriber() << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  const dcrd::RunSummary dcrd_pooled =
      run_pooled(dcrd::RouterKind::kDcrd, 2);
  std::cout << std::left << std::setw(16) << "DCRD" << std::right
            << std::fixed << std::setprecision(4) << std::setw(12)
            << dcrd_pooled.delivery_ratio() << std::setw(12)
            << dcrd_pooled.qos_ratio() << std::setw(14)
            << dcrd_pooled.packets_per_subscriber() << "\n";
  std::cout.unsetf(std::ios::fixed);
  return 0;
}
