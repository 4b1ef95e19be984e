// Periodic link-quality monitoring (paper Section IV-A).
//
// "Each node monitors network conditions only every 5 minutes, while the
// network conditions change more frequently."
//
// Every monitoring epoch the monitor refreshes, per link, the single-
// transmission estimates the routers plan with:
//   alpha_hat — expected one-way delay. Link propagation delays are static
//               in the paper's model, so measurement returns the true delay.
//   gamma_hat — expected delivery ratio, estimated from `probe_count` probe
//               transmissions spread over the preceding epoch (each probe is
//               subject to the failure schedule and the loss rate, like any
//               packet) and smoothed with an EWMA.
//
// The resulting MonitoredView is deliberately *stale* between epochs: this
// staleness is exactly what breaks the tree baselines when 1-second failures
// strike mid-epoch, and what DCRD's dynamic switching compensates for.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "graph/graph.h"
#include "net/failure_schedule.h"

namespace dcrd {

// Immutable snapshot of link estimates, indexed by LinkId.
class MonitoredView {
 public:
  MonitoredView() = default;
  MonitoredView(std::vector<SimDuration> alpha, std::vector<double> gamma)
      : alpha_(std::move(alpha)), gamma_(std::move(gamma)) {}

  [[nodiscard]] SimDuration alpha(LinkId link) const {
    return alpha_[link.underlying()];
  }
  [[nodiscard]] double gamma(LinkId link) const {
    return gamma_[link.underlying()];
  }
  [[nodiscard]] std::size_t link_count() const { return alpha_.size(); }

 private:
  std::vector<SimDuration> alpha_;
  std::vector<double> gamma_;
};

struct LinkMonitorConfig {
  SimDuration interval = SimDuration::Seconds(300);
  int probe_count = 30;       // probes per link per epoch
  double ewma_weight = 0.5;  // weight of the newest sample
  double loss_rate = 0.0;    // probes see the same loss process as data
};

class LinkMonitor {
 public:
  LinkMonitor(const Graph& graph, const FailureSchedule& failures,
              LinkMonitorConfig config, Rng rng);

  // Measures all links over (t - interval, t] and folds the samples into
  // the EWMA estimates. Call at t = 0 for the bootstrap measurement and at
  // every epoch boundary thereafter.
  void MeasureAt(SimTime t);

  [[nodiscard]] const MonitoredView& view() const { return view_; }
  [[nodiscard]] const LinkMonitorConfig& config() const { return config_; }

 private:
  const Graph& graph_;
  const FailureSchedule& failures_;
  LinkMonitorConfig config_;
  Rng rng_;
  std::vector<double> gamma_;  // running EWMA state
  MonitoredView view_;
};

}  // namespace dcrd
