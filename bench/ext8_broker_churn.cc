// Extension experiment 8 — broker crash–recovery (fail-stop churn).
//
// The paper's broker failure model (Section V) pauses a node with its state
// intact. Real brokers *crash*: the process restarts and every piece of
// volatile state — dedup tables, pending hop copies, learned <d,r> views —
// is gone. This experiment turns on the fail-stop crash–recovery process
// (net/broker_lifecycle.h) and sweeps the mean time between failures while
// holding the mean time to repair fixed. Questions:
//
//   (1) How does delivery degrade as crashes become more frequent? DCRD's
//       retransmission budget and upstream reroutes should hold delivery
//       longer than the single-path trees, which lose every packet that was
//       in flight through the dead broker.
//   (2) What does state loss cost in duplicates? A restarted broker forgets
//       what it already handed up, so retransmissions that cross a restart
//       are re-delivered. The crash-aware invariant checker attributes each
//       such duplicate to a specific crash; any duplicate it cannot explain
//       is a bug and fails the run.
//   (3) How long does a restarted DCRD broker take to trust its sending
//       lists again (gossip resync of the <d,r> tables)?
//
// Peer-death detection and the adaptive RTO are on for every router here:
// probing a dead neighbour with the fixed 2*alpha timer would flood the
// trace with budget exhaustions that say nothing about the crash model.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "figure_common.h"

namespace {

double P99DelayMs(const dcrd::RunSummary& summary) {
  if (summary.delay_ms_samples.empty()) return 0.0;
  std::vector<double> sorted = summary.delay_ms_samples;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  dcrd::figures::PrintHeader(
      "Ext.8: broker crash-recovery, 20 nodes, degree 5, MTTR=5s, m=3",
      scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 5;
  base.failure_probability = 0.0;  // crashes are the only failure process
  base.loss_rate = 1e-4;
  base.max_transmissions = 3;
  base.adaptive_rto = true;
  base.peer_death_detection = true;
  base.broker_mttr =
      dcrd::SimDuration::Seconds(flags.GetInt("mttr_seconds", 5));
  // The crash-aware exactly-once check runs alongside: every duplicate a
  // restart cannot explain is a violation (reported below, exit 1).
  base.enable_invariant_checker = true;
  flags.ExitOnUnqueried();
  dcrd::figures::ApplyScale(scale, base);

  // Sweep the mean up-time between crashes; x = MTBF in seconds, 0 = the
  // crash process off (the parity baseline every other figure runs with).
  const std::vector<double> mtbf_seconds = {0.0, 120.0, 60.0, 30.0, 15.0};
  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "ext8_broker_churn", "Ext.8 broker crash-recovery",
      "MTBF (s, 0=off)", base, scale.routers, mtbf_seconds,
      [](double mtbf, dcrd::ScenarioConfig& config) {
        config.broker_mtbf =
            dcrd::SimDuration::Seconds(static_cast<std::int64_t>(mtbf));
      });

  dcrd::PrintTable(std::cout, sweep, "delivery ratio",
                   [](const dcrd::RunSummary& s) { return s.delivery_ratio(); });
  dcrd::PrintTable(std::cout, sweep, "duplicate deliveries per pair",
                   [](const dcrd::RunSummary& s) { return s.duplicate_rate(); });
  dcrd::PrintTable(std::cout, sweep, "p99 delay (ms)", P99DelayMs);
  dcrd::PrintTable(std::cout, sweep, "mean resync (ms)",
                   [](const dcrd::RunSummary& s) { return s.mean_resync_ms(); });
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext8_broker_churn", sweep);

  // DCRD crash anatomy: what each MTBF point cost in crashes, killed
  // copies, peer-death verdicts, and crash-excused duplicates.
  std::size_t dcrd_index = scale.routers.size();
  for (std::size_t i = 0; i < scale.routers.size(); ++i) {
    if (scale.routers[i] == dcrd::RouterKind::kDcrd) dcrd_index = i;
  }
  if (dcrd_index < scale.routers.size()) {
    std::cout << "\n--- DCRD crash anatomy per MTBF point ---\n"
              << "MTBF(s)  crashes  killed-copies  peer-deaths  revivals  "
                 "resyncs  excused-dups\n";
    for (std::size_t i = 0; i < mtbf_seconds.size(); ++i) {
      const dcrd::RunSummary& s = sweep.points[i].per_router[dcrd_index];
      std::printf("%7.0f  %7llu  %13llu  %11llu  %8llu  %7llu  %12llu\n",
                  mtbf_seconds[i],
                  static_cast<unsigned long long>(s.broker_crashes),
                  static_cast<unsigned long long>(s.crash_copies_killed),
                  static_cast<unsigned long long>(s.peer_deaths),
                  static_cast<unsigned long long>(s.peer_revivals),
                  static_cast<unsigned long long>(s.resyncs_completed),
                  static_cast<unsigned long long>(s.crash_excused_duplicates));
    }
  }

  // Any duplicate the checker could not pin on a crash is a correctness
  // bug, not an experimental result.
  std::uint64_t violations = 0;
  for (const dcrd::SweepPoint& point : sweep.points) {
    for (const dcrd::RunSummary& s : point.per_router) {
      violations += s.invariant_violation_count;
      for (const std::string& v : s.invariant_violations) {
        std::cerr << "invariant violation: " << v << "\n";
      }
    }
  }
  if (violations > 0) {
    std::cerr << "ext8: " << violations
              << " invariant violation(s) — see messages above\n";
    return 1;
  }
  return 0;
}
