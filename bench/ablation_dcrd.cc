// Ablation — which DCRD design choices carry the result?
//
// Variants, all on the same seeds, topology (20 nodes, degree 5) and
// failure schedule (Pf = 0.08 with heterogeneity 1.5 — some links an order
// of magnitude flakier than others, the regime where reliability-aware
// decisions matter):
//   1. Theorem-1 ordering vs delay-only vs reliability-only sending lists —
//      what the paper's optimality proof buys in vivo.
//   2. Best-effort fallback off: walking past deadline-ineligible
//      neighbours is what keeps the delivery ratio at 100%; without it
//      budget-starved packets die early.
//   3. Upstream reroute retries off: a single failed upstream hop becomes
//      fatal for the rerouted packet.
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"

namespace {

struct Variant {
  const char* label;
  dcrd::OrderingPolicy ordering;
  bool fallback;
  int reroute_cap;
};

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Ablation: DCRD variants, 20 nodes, degree 5, Pf=0.08, "
      "heterogeneity 1.5",
      scale);

  const Variant variants[] = {
      {"DCRD (Theorem 1)", dcrd::OrderingPolicy::kTheorem1, true, 20},
      {"delay-only order", dcrd::OrderingPolicy::kDelayFirst, true, 20},
      {"reliability order", dcrd::OrderingPolicy::kReliabilityFirst, true, 20},
      {"no fallback", dcrd::OrderingPolicy::kTheorem1, false, 20},
      {"no upstream retry", dcrd::OrderingPolicy::kTheorem1, true, 0},
  };

  std::cout << "\n"
            << std::left << std::setw(22) << "variant" << std::right
            << std::setw(12) << "delivery" << std::setw(12) << "QoS"
            << std::setw(14) << "pkts/sub" << "\n";
  for (const Variant& variant : variants) {
    const dcrd::RunSummary pooled = dcrd::figures::RunFigureReps(
        scale, std::string("ablation:") + variant.label,
        [&scale, &variant](int rep) {
          dcrd::ScenarioConfig config;
          config.router = dcrd::RouterKind::kDcrd;
          config.node_count = 20;
          config.topology = dcrd::TopologyKind::kRandomDegree;
          config.degree = 5;
          config.failure_probability = 0.08;
          config.failure_heterogeneity = 1.5;
          config.loss_rate = 1e-4;
          config.dcrd_ordering = variant.ordering;
          config.dcrd_best_effort_fallback = variant.fallback;
          config.dcrd_reroute_retry_cap = variant.reroute_cap;
          config.sim_time = scale.sim_time;
          config.seed = scale.seed + static_cast<std::uint64_t>(rep);
          return config;
        });
    std::cout << std::left << std::setw(22) << variant.label << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << pooled.delivery_ratio() << std::setw(12)
              << pooled.qos_ratio() << std::setw(14)
              << pooled.packets_per_subscriber() << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  return 0;
}
