// Per-link adaptive retransmission-timeout estimation (Jacobson/Karels).
//
// The paper arms every ACK timer from the monitored alpha_hat, which is
// refreshed only every 5 minutes; under delay inflation (gray failures,
// queuing, jitter) that fixed timer fires while the ACK is still in flight
// and every such firing is a spurious retransmission. The standard cure —
// RFC 6298 smoothed RTT estimation — is implemented here: per link, keep
//
//   SRTT   <- (1-1/8) SRTT   + 1/8 sample
//   RTTVAR <- (1-1/4) RTTVAR + 1/4 |SRTT - sample|
//   RTO     = SRTT + max(G, 4 RTTVAR),   clamped to [min_rto, max_rto]
//
// seeded from the monitored alpha_hat until the first real sample arrives.
// Retransmissions back off exponentially (RTO << attempt) with a small
// deterministic jitter keyed on (copy id, attempt), so the simulation stays
// bit-reproducible and concurrent copies on one link do not retransmit in
// lock-step.
//
// The simulator's ACKs identify which transmission they answer, so every
// RTT sample is unambiguous and Karn's ambiguity rule is unnecessary —
// samples from retransmitted copies are safe to fold in.
#pragma once

#include <cstdint>

#include "common/dense_map.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace dcrd {

struct RtoConfig {
  SimDuration min_rto = SimDuration::Millis(2);
  SimDuration max_rto = SimDuration::Seconds(2);
  // RFC 6298's clock granularity G: variance floor added to SRTT.
  SimDuration granularity = SimDuration::Micros(100);
  // Half-width of the deterministic per-(copy, attempt) timeout spread,
  // as a fraction of the backed-off RTO.
  double jitter = 0.1;
  // EWMA gains (RFC 6298 defaults).
  double srtt_gain = 1.0 / 8.0;
  double rttvar_gain = 1.0 / 4.0;
};

// Estimator state is kept per *directed* link — the transport's directed
// index (2*link + direction). The two directions of one physical link are
// driven by different senders; directed state keeps each sender's estimate
// a pure function of its own sample stream (an undirected estimator would
// interleave the two directions' samples in scheduler order).
class RtoEstimator {
 public:
  explicit RtoEstimator(RtoConfig config = {}) : config_(config) {}

  // Folds one observed ACK round-trip on directed link `directed` into the
  // estimate.
  void OnSample(std::size_t directed, SimDuration rtt);

  // Current RTO for `directed`; `seed` (the alpha_hat-derived fixed
  // timeout) is used until the first sample arrives.
  [[nodiscard]] SimDuration Rto(std::size_t directed, SimDuration seed) const;

  // Timeout to arm for transmission `attempt` (0-based) of `copy_id`:
  // Rto(directed, seed) << attempt, jittered and clamped.
  [[nodiscard]] SimDuration TimeoutFor(std::size_t directed, SimDuration seed,
                                       int attempt,
                                       std::uint64_t copy_id) const;

  [[nodiscard]] bool HasSample(std::size_t directed) const {
    return state_.Contains(directed);
  }
  [[nodiscard]] std::uint64_t sample_count() const { return sample_count_; }
  [[nodiscard]] const RtoConfig& config() const { return config_; }

 private:
  struct State {
    double srtt_us = 0.0;
    double rttvar_us = 0.0;
  };

  [[nodiscard]] SimDuration Clamp(SimDuration rto) const;

  RtoConfig config_;
  // Directed indices are dense small integers, so per-direction state is a
  // flat array indexed directly — no hashing on the per-ACK sample path.
  DenseIndexMap<State> state_;
  std::uint64_t sample_count_ = 0;
};

}  // namespace dcrd
