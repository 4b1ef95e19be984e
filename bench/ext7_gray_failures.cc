// Extension experiment 7 — gray failures and adaptive retransmission.
//
// The paper's failure model is binary: a link is up or down, and the fixed
// 2*alpha_hat retransmission timer is tuned to that world. Real overlays
// also degrade *partially* — elevated loss, inflated delay, often in one
// direction only. Two questions:
//
//   (1) How does each protocol degrade as gray episodes (extra loss +
//       delay inflation + asymmetry) become more frequent? Panels:
//       delivery ratio, p99 end-to-end delay, spurious-retransmission
//       rate (spurious per data transmission).
//   (2) Under pure delay inflation the fixed timer fires before the ACK
//       can possibly return — every retransmission is wasted capacity.
//       Does the per-link Jacobson/Karels estimator (--adaptive_rto in
//       dcrdsim) recover that waste without giving up delivery?
//
// Expectation: gray loss hurts the trees most (single path, no retry
// budget to spare); DCRD's reroute machinery holds delivery but pays in
// spurious retransmissions under delay inflation — unless the adaptive
// timer is on, which learns the inflated RTT within a few samples.
#include <algorithm>
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

double SpuriousRate(const dcrd::RunSummary& summary) {
  return summary.data_transmissions == 0
             ? 0.0
             : static_cast<double>(summary.spurious_retransmissions) /
                   static_cast<double>(summary.data_transmissions);
}

// Total retransmission rate. A copy whose send budget expires before a
// badly late ACK straggles home cannot be classified spurious, so under
// heavy inflation this is the honest waste metric alongside SpuriousRate.
double RetxRate(const dcrd::RunSummary& summary) {
  return summary.data_transmissions == 0
             ? 0.0
             : static_cast<double>(summary.retransmissions) /
                   static_cast<double>(summary.data_transmissions);
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  const std::string csv_dir = flags.GetString("csv", "");
  dcrd::figures::PrintHeader(
      "Ext.7: gray failures, 20 nodes, degree 5, link Pf=0.05, m=3", scale);

  dcrd::ScenarioConfig base;
  base.node_count = 20;
  base.topology = dcrd::TopologyKind::kRandomDegree;
  base.degree = 5;
  base.failure_probability = 0.05;
  base.loss_rate = 1e-4;
  base.max_transmissions = 3;
  base.gray_extra_loss = flags.GetDouble("gray_loss", 0.25);
  base.gray_delay_factor = flags.GetDouble("gray_delay_factor", 3.0);
  base.gray_asymmetry = flags.GetDouble("gray_asymmetry", 0.5);
  flags.ExitOnUnqueried();
  dcrd::figures::ApplyScale(scale, base);

  // Panel set 1: sweep gray-episode probability for all protocols.
  const dcrd::SweepResult sweep = dcrd::figures::RunFigureSweep(
      scale, "ext7_gray_failures", "Ext.7 gray-failure intensity", "gray Pf",
      base, scale.routers, {0.0, 0.1, 0.2, 0.3, 0.4},
      [](double pf, dcrd::ScenarioConfig& config) {
        config.gray_probability = pf;
      });

  dcrd::PrintTable(std::cout, sweep, "delivery ratio",
                   [](const dcrd::RunSummary& s) { return s.delivery_ratio(); });
  dcrd::PrintTable(std::cout, sweep, "p99 delay (ms)", P99DelayMs);
  dcrd::PrintTable(std::cout, sweep, "spurious retx per data tx",
                   SpuriousRate);
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext7_gray_failures", sweep);

  // Panel set 2: DCRD fixed timer vs adaptive RTO under pure delay
  // inflation. No binary outages, no packet loss, no gray loss: nothing is
  // ever actually lost, so *every* retransmission is pure timer waste —
  // the cleanest possible read on what each timer policy costs.
  dcrd::ScenarioConfig inflate = base;
  inflate.failure_probability = 0.0;
  inflate.loss_rate = 0.0;
  inflate.gray_probability = 0.3;
  inflate.gray_extra_loss = 0.0;
  inflate.gray_asymmetry = 0.0;
  const std::vector<double> factors = {1.0, 2.0, 4.0, 6.0, 8.0};
  const std::vector<dcrd::RouterKind> dcrd_only = {dcrd::RouterKind::kDcrd};
  const auto set_factor = [](double factor, dcrd::ScenarioConfig& config) {
    config.gray_delay_factor = factor;
  };

  inflate.adaptive_rto = false;
  const dcrd::SweepResult fixed_sweep = dcrd::figures::RunFigureSweep(
      scale, "ext7_rto_fixed", "Ext.7 DCRD fixed timer", "delay factor",
      inflate, dcrd_only, factors, set_factor);
  inflate.adaptive_rto = true;
  const dcrd::SweepResult adaptive_sweep = dcrd::figures::RunFigureSweep(
      scale, "ext7_rto_adaptive", "Ext.7 DCRD adaptive RTO", "delay factor",
      inflate, dcrd_only, factors, set_factor);

  std::cout << "\n--- DCRD under delay inflation: fixed 2*alpha timer vs "
               "adaptive RTO ---\n"
            << "delay-factor  fixed[deliv  p99ms  retx/tx  spur/tx]  "
               "adaptive[deliv  p99ms  retx/tx  spur/tx]\n";
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const dcrd::RunSummary& fixed = fixed_sweep.points[i].per_router[0];
    const dcrd::RunSummary& adaptive = adaptive_sweep.points[i].per_router[0];
    std::printf("%11.1f  %11.4f %6.1f %8.4f %8.4f  %14.4f %6.1f %8.4f %8.4f\n",
                factors[i], fixed.delivery_ratio(), P99DelayMs(fixed),
                RetxRate(fixed), SpuriousRate(fixed),
                adaptive.delivery_ratio(), P99DelayMs(adaptive),
                RetxRate(adaptive), SpuriousRate(adaptive));
  }
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext7_rto_fixed", fixed_sweep);
  dcrd::figures::MaybeSaveCsv(csv_dir, "ext7_rto_adaptive", adaptive_sweep);
  return 0;
}
