// dcrdsim — the full-surface command-line driver for the simulator.
//
// Exposes every ScenarioConfig knob as a flag, runs one scenario (or one
// per router with --all), and prints the summary. The quickest way to poke
// at a hypothesis without writing a bench.
//
//   ./dcrdsim --router DCRD --nodes 40 --degree 6 --pf 0.08 --seconds 600
//   ./dcrdsim --all --topology mesh --pf 0.04
//   ./dcrdsim --router DCRD --pf 0.1 --outage_epochs 10 --persistence
//   ./dcrdsim --all --load overlay.txt        # topology_tool edge list
//   ./dcrdsim --router DCRD --distributed     # live <d,r> gossip control plane
//   ./dcrdsim --router DCRD --broker_mtbf 60 --peer_death --check_invariants
//
// Exits 1 when a run under --check_invariants printed an INVARIANT
// VIOLATIONS block, 2 on a malformed command line, 0 otherwise.
#include <cstdint>
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace {

const std::vector<std::string> kKnownFlags = {
    "router",      "all",          "nodes",       "topology",
    "degree",      "pf",           "pl",          "m",
    "qos",         "topics",       "seconds",     "seed",
    "outage_epochs", "node_pf",    "node_outage_epochs",
    "serialization_ms", "persistence", "multipath_paths",
    "monitor_s",   "rate",         "ack_delay_factor", "verbose",
    "histogram",   "heterogeneity", "jitter",          "ordering",
    "churn",       "load",          "distributed",
    "gray",        "gray_loss",     "gray_delay_factor", "gray_asymmetry",
    "adaptive_rto", "check_invariants",
    "broker_mtbf", "broker_mttr",   "peer_death",  "peer_death_threshold",
};

void PrintSummary(const dcrd::ScenarioConfig& config,
                  const dcrd::RunSummary& summary, bool histogram) {
  std::cout << std::left << std::setw(12) << dcrd::RouterName(config.router)
            << std::right << std::fixed << std::setprecision(4)
            << std::setw(12) << summary.delivery_ratio() << std::setw(12)
            << summary.qos_ratio() << std::setw(14)
            << summary.packets_per_subscriber() << std::setw(11)
            << dcrd::Quantile(summary.delay_ms_samples, 0.5) << std::setw(11)
            << dcrd::Quantile(summary.delay_ms_samples, 0.95) << std::setw(11)
            << dcrd::Quantile(summary.delay_ms_samples, 0.99) << "\n";
  std::cout.unsetf(std::ios::fixed);
  if (summary.invariant_violation_count > 0) {
    std::cout << "INVARIANT VIOLATIONS (" << summary.invariant_violation_count
              << "):\n";
    for (const std::string& violation : summary.invariant_violations) {
      std::cout << "  " << violation << "\n";
    }
  }
  if (histogram && !summary.delay_ms_samples.empty()) {
    const double hi = dcrd::Quantile(summary.delay_ms_samples, 0.999) + 1.0;
    std::cout << "\nend-to-end delay (ms):\n"
              << dcrd::MakeHistogram(summary.delay_ms_samples, 0.0, hi, 20)
                     .Render()
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  // Flags are read lazily below, so typo rejection uses the explicit
  // allow-list rather than ExitOnUnqueried().
  bool unknown_flags = false;
  for (const std::string& unknown : flags.UnknownFlags(kKnownFlags)) {
    std::cerr << "error: unknown flag --" << unknown << "\n";
    unknown_flags = true;
  }
  if (unknown_flags) return 2;
  if (flags.GetBool("verbose", false)) {
    dcrd::GlobalLogLevel() = dcrd::LogLevel::kDebug;
  }

  dcrd::ScenarioConfig config;
  config.node_count = static_cast<std::size_t>(flags.GetInt("nodes", 20));
  config.topology =
      dcrd::ParseTopology("topology", flags.GetString("topology", "degree"));
  config.degree = static_cast<std::size_t>(flags.GetInt("degree", 8));
  config.failure_probability = flags.GetDouble("pf", 0.06);
  config.link_outage_epochs =
      static_cast<int>(flags.GetInt("outage_epochs", 1));
  config.node_failure_probability = flags.GetDouble("node_pf", 0.0);
  config.node_outage_epochs =
      static_cast<int>(flags.GetInt("node_outage_epochs", 1));
  config.loss_rate = flags.GetDouble("pl", 1e-4);
  config.max_transmissions = static_cast<int>(flags.GetInt("m", 1));
  config.qos_factor = flags.GetDouble("qos", 3.0);
  config.topic_count = static_cast<std::size_t>(flags.GetInt("topics", 10));
  config.sim_time = dcrd::SimDuration::Seconds(flags.GetInt("seconds", 600));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.link_serialization =
      dcrd::SimDuration::Millis(flags.GetInt("serialization_ms", 0));
  config.dcrd_persistence = flags.GetBool("persistence", false);
  config.multipath_path_count =
      static_cast<std::size_t>(flags.GetInt("multipath_paths", 2));
  config.monitor_interval =
      dcrd::SimDuration::Seconds(flags.GetInt("monitor_s", 300));
  config.ack_delay_factor = flags.GetDouble("ack_delay_factor", 0.0);
  config.failure_heterogeneity = flags.GetDouble("heterogeneity", 0.0);
  config.delay_jitter = flags.GetDouble("jitter", 0.0);
  config.subscription_churn = flags.GetDouble("churn", 0.0);
  config.gray_probability = flags.GetDouble("gray", 0.0);
  config.gray_extra_loss = flags.GetDouble("gray_loss", 0.25);
  config.gray_delay_factor = flags.GetDouble("gray_delay_factor", 3.0);
  config.gray_asymmetry = flags.GetDouble("gray_asymmetry", 0.5);
  config.adaptive_rto = flags.GetBool("adaptive_rto", false);
  // Crash–recovery: --broker_mtbf S turns the fail-stop process on (mean up
  // seconds between crashes); --peer_death arms ACK-silence detection.
  config.broker_mtbf =
      dcrd::SimDuration::Seconds(flags.GetInt("broker_mtbf", 0));
  config.broker_mttr =
      dcrd::SimDuration::Seconds(flags.GetInt("broker_mttr", 5));
  config.peer_death_detection = flags.GetBool("peer_death", false);
  config.peer_death_threshold =
      static_cast<int>(flags.GetInt("peer_death_threshold", 2));
  config.enable_invariant_checker = flags.GetBool("check_invariants", false);
  config.topology_file = flags.GetString("load", "");
  config.dcrd_distributed = flags.GetBool("distributed", false);
  const std::string ordering = flags.GetString("ordering", "theorem1");
  config.dcrd_ordering = dcrd::ParseOrdering("ordering", ordering);
  // The <d,r> gossip runs the paper's Theorem-1 recursion only.
  if (config.dcrd_distributed &&
      config.dcrd_ordering != dcrd::OrderingPolicy::kTheorem1) {
    std::cerr << "error: --distributed needs --ordering theorem1, got '"
              << ordering << "'\n";
    return 2;
  }
  if (flags.Has("rate")) {
    config.publish_interval =
        dcrd::SimDuration::FromSecondsF(1.0 / flags.GetDouble("rate", 1.0));
  }

  std::vector<dcrd::RouterKind> routers;
  if (flags.GetBool("all", false)) {
    routers = {dcrd::RouterKind::kDcrd, dcrd::RouterKind::kRTree,
               dcrd::RouterKind::kDTree, dcrd::RouterKind::kOracle,
               dcrd::RouterKind::kMultipath};
  } else {
    routers = {dcrd::ParseRouter("router", flags.GetString("router", "DCRD"))};
  }

  config.router = routers.front();
  std::cout << "scenario: " << config.Describe() << "\n\n"
            << std::left << std::setw(12) << "router" << std::right
            << std::setw(12) << "delivery" << std::setw(12) << "QoS"
            << std::setw(14) << "pkts/sub" << std::setw(11) << "p50 ms"
            << std::setw(11) << "p95 ms" << std::setw(11) << "p99 ms"
            << "\n";
  const bool histogram = flags.GetBool("histogram", false);
  std::uint64_t violations = 0;
  for (const dcrd::RouterKind router : routers) {
    config.router = router;
    const dcrd::RunSummary summary = dcrd::RunScenario(config);
    PrintSummary(config, summary, histogram);
    violations += summary.invariant_violation_count;
  }
  // Fails only after every router's table is out.
  return violations > 0 ? 1 : 0;
}
