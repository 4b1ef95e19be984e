// Link- and node-failure processes.
//
// Paper Section IV-A: "we change the network condition once every second,
// i.e., we inject link failures into randomly chosen links that will cause
// one second of packet loss." Every (link, epoch) pair independently fails
// with probability Pf — that is `outage_epochs = 1`, the default.
//
// Three extensions the paper points at are modelled here too:
//  * Multi-epoch outages (`outage_epochs = L > 1`): an outage *starts* in
//    an epoch with probability q = 1-(1-Pf)^(1/L) and holds the link down
//    for L consecutive epochs, so the stationary down-fraction stays
//    exactly Pf while outages become L seconds long. This is the regime
//    where the paper's persistency mode matters.
//  * Per-link heterogeneity: each link may have its own stationary down
//    fraction (lossy access links next to clean backbone links). This is
//    what makes reliability-aware sending-list ordering (Theorem 1) differ
//    from plain delay ordering in vivo.
//  * Node failures (Section V future work): the same process keyed by
//    broker node — a down broker can neither send nor receive, which takes
//    out all its adjacent links at once (correlated link failures).
//
// All schedules are *counter-based*: up/down at time t is a pure hash of
// (seed, entity, epoch), so queries need no state, work for any horizon
// (the ORACLE consults the future), and two routing algorithms with the
// same seed face the identical sample path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace dcrd {

namespace internal {

// Shared counter-based outage machinery over an integer entity id; the
// per-entity outage-start probability is supplied by the caller.
class OutageProcess {
 public:
  OutageProcess(std::uint64_t seed, SimDuration epoch, int outage_epochs)
      : seed_(seed), epoch_(epoch), outage_epochs_(outage_epochs) {
    DCRD_CHECK(outage_epochs_ >= 1);
  }

  [[nodiscard]] bool IsUp(std::uint64_t entity, SimTime t,
                          double start_probability) const {
    if (start_probability <= 0.0) return true;
    const std::uint64_t epoch_index =
        static_cast<std::uint64_t>(t.micros() / epoch_.micros());
    // Down iff an outage started in any of the last `outage_epochs_`
    // epochs (including this one), clamped at the beginning of time.
    for (int back = 0; back < outage_epochs_; ++back) {
      if (epoch_index < static_cast<std::uint64_t>(back)) break;
      if (Draw(entity, epoch_index - back) < start_probability) return false;
    }
    return true;
  }

  // Outage-start probability q with stationary down fraction exactly
  // `down_fraction`: 1 - (1-q)^L = down_fraction.
  [[nodiscard]] double StartProbabilityFor(double down_fraction) const;

  [[nodiscard]] SimDuration epoch() const { return epoch_; }
  [[nodiscard]] int outage_epochs() const { return outage_epochs_; }

 private:
  [[nodiscard]] double Draw(std::uint64_t entity,
                            std::uint64_t epoch_index) const {
    std::uint64_t s = seed_ ^ (0x9E3779B97F4A7C15ULL * (entity + 1));
    s ^= 0xC2B2AE3D27D4EB4FULL * (epoch_index + 1);
    const std::uint64_t bits = SplitMix64(s);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  std::uint64_t seed_;
  SimDuration epoch_;
  int outage_epochs_;
};

}  // namespace internal

// True when `holds(t)` at t0 and at every `epoch` boundary in (t0, t1]: all
// of [t0, t1] for outage-process states, which change only on boundaries.
template <typename Pred>
[[nodiscard]] bool HoldsThroughout(SimDuration epoch, SimTime t0, SimTime t1,
                                   Pred holds) {
  for (SimTime t = t0; t <= t1; t = SimTime::FromMicros(
           (t.micros() / epoch.micros() + 1) * epoch.micros())) {
    if (!holds(t)) return false;
  }
  return true;
}

// Per-link failure process; uniform Pf or per-link down fractions.
class FailureSchedule {
 public:
  FailureSchedule(std::uint64_t seed, double failure_probability,
                  SimDuration epoch = SimDuration::Seconds(1),
                  int outage_epochs = 1)
      : process_(seed, epoch, outage_epochs),
        uniform_fraction_(failure_probability),
        uniform_start_(process_.StartProbabilityFor(failure_probability)) {
    DCRD_CHECK(failure_probability >= 0.0 && failure_probability <= 1.0);
  }

  // Heterogeneous variant: `per_link_fraction[l]` is link l's stationary
  // down fraction.
  FailureSchedule(std::uint64_t seed, std::vector<double> per_link_fraction,
                  SimDuration epoch = SimDuration::Seconds(1),
                  int outage_epochs = 1)
      : process_(seed, epoch, outage_epochs),
        per_link_fraction_(std::move(per_link_fraction)) {
    double sum = 0.0;
    per_link_start_.reserve(per_link_fraction_.size());
    for (const double fraction : per_link_fraction_) {
      DCRD_CHECK(fraction >= 0.0 && fraction <= 1.0);
      per_link_start_.push_back(process_.StartProbabilityFor(fraction));
      sum += fraction;
    }
    uniform_fraction_ = per_link_fraction_.empty()
                            ? 0.0
                            : sum / static_cast<double>(
                                        per_link_fraction_.size());
  }

  // True when `link` is usable for transmissions entered at time `t`.
  [[nodiscard]] bool IsUp(LinkId link, SimTime t) const {
    return process_.IsUp(link.underlying(), t, StartProbability(link));
  }

  // Stationary down fraction: the link's own when heterogeneous, the
  // global Pf otherwise.
  [[nodiscard]] double DownFraction(LinkId link) const {
    if (link.underlying() < per_link_fraction_.size()) {
      return per_link_fraction_[link.underlying()];
    }
    return uniform_fraction_;
  }
  // Mean down fraction across links (== Pf in the uniform case).
  [[nodiscard]] double failure_probability() const {
    return uniform_fraction_;
  }
  [[nodiscard]] SimDuration epoch() const { return process_.epoch(); }
  [[nodiscard]] int outage_epochs() const { return process_.outage_epochs(); }

 private:
  [[nodiscard]] double StartProbability(LinkId link) const {
    if (link.underlying() < per_link_start_.size()) {
      return per_link_start_[link.underlying()];
    }
    return uniform_start_;
  }

  internal::OutageProcess process_;
  double uniform_fraction_ = 0.0;
  double uniform_start_ = 0.0;
  std::vector<double> per_link_fraction_;
  std::vector<double> per_link_start_;
};

// Per-broker failure process (paper Section V: node failures).
class NodeFailureSchedule {
 public:
  // The default — probability 0 — never fails anyone.
  NodeFailureSchedule() : NodeFailureSchedule(0, 0.0) {}
  NodeFailureSchedule(std::uint64_t seed, double failure_probability,
                      SimDuration epoch = SimDuration::Seconds(1),
                      int outage_epochs = 1)
      : process_(seed, epoch, outage_epochs),
        fraction_(failure_probability),
        start_(process_.StartProbabilityFor(failure_probability)) {
    DCRD_CHECK(failure_probability >= 0.0 && failure_probability <= 1.0);
  }

  [[nodiscard]] bool IsUp(NodeId node, SimTime t) const {
    return process_.IsUp(node.underlying(), t, start_);
  }

  [[nodiscard]] double failure_probability() const { return fraction_; }
  [[nodiscard]] int outage_epochs() const { return process_.outage_epochs(); }

 private:
  internal::OutageProcess process_;
  double fraction_;
  double start_;
};

// Draws per-link stationary down fractions around `mean_fraction` with
// log-uniform spread `heterogeneity` (0 = uniform Pf everywhere; h draws
// each link's fraction as Pf * exp(U(-h, h)), clamped to [0, 0.9]). The
// spread is what separates "reliable" from "flaky" links.
std::vector<double> DrawHeterogeneousFractions(std::size_t link_count,
                                               double mean_fraction,
                                               double heterogeneity,
                                               Rng& rng);

}  // namespace dcrd
