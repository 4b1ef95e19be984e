// Extension experiment 2 — the persistency mode (paper Section III).
//
// "To provide the delivery guarantee even in case of persistent failures,
// we need to persist all packets, and then send them when the failures are
// recovered. Supporting the persistency mode should be straight forward,
// but this mode incurs a large overhead."
//
// Persistence only matters when the overlay actually partitions: on a
// degree-4 overlay DCRD's rerouting already finds a detour around any
// plausible failure set, so this experiment runs on a *ring* (degree 2 —
// the sparsest connected overlay), where two simultaneous 10-second link
// outages cut publisher from subscriber. DCRD with persistence off vs on.
// Expected: persistence closes the delivery-ratio gap toward 100% at
// unchanged QoS ratio (rescued packets are late by construction), paying
// extra traffic for the retries — the "large overhead" the paper predicts,
// quantified.
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Ext.2: persistency mode under 10s outages, 20-node ring (degree 2)",
      scale);

  std::cout << "\n"
            << std::left << std::setw(8) << "Pf" << std::setw(14)
            << "persistence" << std::right << std::setw(12) << "delivery"
            << std::setw(12) << "QoS" << std::setw(14) << "pkts/sub"
            << "\n";
  for (const double pf : {0.02, 0.06, 0.10}) {
    for (const bool persistence : {false, true}) {
      const dcrd::RunSummary pooled = dcrd::figures::RunFigureReps(
          scale,
          "ext2:pf" + std::to_string(pf) +
              (persistence ? ":persist" : ":plain"),
          [&scale, pf, persistence](int rep) {
            dcrd::ScenarioConfig config;
            config.router = dcrd::RouterKind::kDcrd;
            config.node_count = 20;
            config.topology = dcrd::TopologyKind::kRandomDegree;
            config.degree = 2;  // ring: the only overlay that actually cuts
            config.failure_probability = pf;
            config.link_outage_epochs = 10;  // 10-second outages
            config.loss_rate = 1e-4;
            config.dcrd_persistence = persistence;
            config.sim_time = scale.sim_time;
            config.seed = scale.seed + static_cast<std::uint64_t>(rep);
            return config;
          });
      std::cout << std::left << std::setw(8) << pf << std::setw(14)
                << (persistence ? "on" : "off") << std::right << std::fixed
                << std::setprecision(4) << std::setw(12)
                << pooled.delivery_ratio() << std::setw(12)
                << pooled.qos_ratio() << std::setw(14)
                << pooled.packets_per_subscriber() << "\n";
      std::cout.unsetf(std::ios::fixed);
    }
  }
  return 0;
}
