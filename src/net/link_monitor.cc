#include "net/link_monitor.h"

#include <algorithm>

namespace dcrd {

LinkMonitor::LinkMonitor(const Graph& graph, const FailureSchedule& failures,
                         LinkMonitorConfig config, Rng rng)
    : graph_(graph), failures_(failures), config_(config), rng_(rng) {
  DCRD_CHECK(config_.probe_count > 0);
  DCRD_CHECK(config_.ewma_weight > 0.0 && config_.ewma_weight <= 1.0);
  gamma_.assign(graph_.edge_count(), 1.0);
}

void LinkMonitor::MeasureAt(SimTime t) {
  const std::size_t link_count = graph_.edge_count();
  std::vector<SimDuration> alpha(link_count);
  std::vector<double> gamma(link_count);

  // Probe instants are spread uniformly at random over the window ending at
  // t (or, at the bootstrap measurement t=0, over the first window — the
  // failure schedule is stationary, so this yields the same statistics).
  const SimTime window_start =
      t.micros() >= config_.interval.micros()
          ? SimTime::FromMicros(t.micros() - config_.interval.micros())
          : SimTime::Zero();
  const std::int64_t window_span =
      std::max<std::int64_t>(config_.interval.micros(), 1);

  for (std::size_t i = 0; i < link_count; ++i) {
    const LinkId link(static_cast<LinkId::underlying_type>(i));
    alpha[i] = graph_.edge(link).delay;

    int successes = 0;
    for (int p = 0; p < config_.probe_count; ++p) {
      const SimTime probe_time =
          window_start +
          SimDuration::Micros(rng_.NextInRange(0, window_span - 1));
      const bool up = failures_.IsUp(link, probe_time);
      const bool lost =
          config_.loss_rate > 0.0 && rng_.NextBernoulli(config_.loss_rate);
      if (up && !lost) ++successes;
    }
    const double sample =
        static_cast<double>(successes) / config_.probe_count;
    gamma_[i] = config_.ewma_weight * sample +
                (1.0 - config_.ewma_weight) * gamma_[i];
    constexpr double kGammaFloor = 1e-4;  // estimates never reach exactly 0
    gamma[i] = std::max(gamma_[i], kGammaFloor);
  }

  view_ = MonitoredView(std::move(alpha), std::move(gamma));
}

}  // namespace dcrd
