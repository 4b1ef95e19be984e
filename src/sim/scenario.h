// Scenario configuration (paper Section IV-A defaults).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sim_time.h"
#include "dcrd/dr.h"

namespace dcrd {

enum class TopologyKind {
  kFullMesh,      // Fig. 2
  kRandomDegree,  // Figs. 3-8 ("for a given link degree, we randomly choose
                  //  the neighboring nodes")
};

enum class RouterKind { kDcrd, kRTree, kDTree, kOracle, kMultipath };

const char* RouterName(RouterKind kind);

struct ScenarioConfig {
  // --- topology -----------------------------------------------------------
  std::size_t node_count = 20;
  TopologyKind topology = TopologyKind::kRandomDegree;
  std::size_t degree = 8;
  SimDuration link_delay_min = SimDuration::Millis(10);
  SimDuration link_delay_max = SimDuration::Millis(50);
  // When non-empty, the overlay is loaded from this edge-list file (see
  // graph/io.h) instead of being generated; node_count / topology / degree
  // and the delay range are then ignored.
  std::string topology_file;

  // --- failure / loss processes -------------------------------------------
  double failure_probability = 0.0;   // Pf, stationary link-down fraction
  SimDuration failure_epoch = SimDuration::Seconds(1);
  // Length of a link outage in epochs (1 = the paper's one-second blips;
  // larger values model long outages for the persistency-mode experiments).
  int link_outage_epochs = 1;
  // Per-link spread of the failure probability: 0 = every link fails at
  // exactly Pf (the paper's model); h > 0 draws each link's down fraction
  // as Pf * exp(U(-h, h)) — heterogeneous "flaky vs clean" links, the
  // regime where reliability-aware ordering earns its keep.
  double failure_heterogeneity = 0.0;
  // Broker-node failure process (paper Section V future work). A down
  // broker can neither send nor receive.
  double node_failure_probability = 0.0;
  int node_outage_epochs = 1;
  // Broker crash–recovery process (net/broker_lifecycle.h): fail-stop
  // restarts with volatile-state loss. Distinct from
  // node_failure_probability — a *failed* broker pauses with its state
  // intact, a *crashed* broker comes back empty and must resync. The mean
  // up time between crashes; Zero disables the process entirely.
  SimDuration broker_mtbf = SimDuration::Zero();
  // Mean (and, with the counter-based schedule, exact) outage length.
  SimDuration broker_mttr = SimDuration::Seconds(5);
  double loss_rate = 1e-4;            // Pl, per transmission
  // Gray-failure (partial-degradation) process; see net/gray_failure.h.
  // Probability 0 disables it and leaves every sample path untouched.
  double gray_probability = 0.0;      // per link/epoch episode probability
  double gray_extra_loss = 0.25;      // extra drop probability while gray
  double gray_delay_factor = 3.0;     // propagation multiplier while gray
  double gray_asymmetry = 0.5;        // P(episode degrades one direction only)
  // Per-packet link occupancy; 0 = infinite bandwidth (the paper's model).
  SimDuration link_serialization = SimDuration::Zero();
  // Propagation jitter fraction; 0 = the paper's fixed delays.
  double delay_jitter = 0.0;

  // --- protocol parameters --------------------------------------------------
  RouterKind router = RouterKind::kDcrd;
  int max_transmissions = 1;          // m
  SimDuration ack_slack = SimDuration::Millis(1);
  // Adaptive per-link retransmission timers (Jacobson/Karels RTO with
  // exponential backoff) instead of the paper's fixed 2*alpha_hat + slack
  // timer. Off by default: the paper's figures assume the fixed timer.
  bool adaptive_rto = false;
  // ACK-silence peer-death detection + probing in every HopTransport (see
  // hop_transport.h). Off by default for figure parity.
  bool peer_death_detection = false;
  int peer_death_threshold = 2;
  // ACK propagation as a fraction of the link delay. 0 = the paper's
  // "senders immediately know the reception status" out-of-band model;
  // 1 = physical in-band round trip (ablation).
  double ack_delay_factor = 0.0;
  bool dcrd_best_effort_fallback = true;
  int dcrd_reroute_retry_cap = 20;
  // Persistency mode (paper Section III); see DcrdConfig.
  bool dcrd_persistence = false;
  SimDuration dcrd_persistence_retry = SimDuration::Seconds(1);
  int dcrd_persistence_max_retries = 60;
  // Parallel routes per subscriber for the Multipath baseline (paper: 2).
  std::size_t multipath_path_count = 2;
  // Sending-list ordering (ablation; kTheorem1 is DCRD proper).
  OrderingPolicy dcrd_ordering = OrderingPolicy::kTheorem1;
  // Run the Section III-B recursion as real gossip instead of the
  // centralized solver (control traffic counted; brief convergence window
  // after every epoch).
  bool dcrd_distributed = false;

  // --- monitoring ------------------------------------------------------------
  SimDuration monitor_interval = SimDuration::Seconds(300);
  int monitor_probes = 30;
  double monitor_ewma_weight = 0.5;

  // --- workload ---------------------------------------------------------------
  std::size_t topic_count = 10;
  double subscriber_probability_min = 0.2;  // Ps drawn per topic
  double subscriber_probability_max = 0.6;
  SimDuration publish_interval = SimDuration::Seconds(1);
  double qos_factor = 3.0;  // deadline = factor * shortest-path delay
  // Subscription churn: at every monitoring epoch each subscription is,
  // with this probability, replaced by a subscription from a random
  // previously-uninterested broker (count-preserving join/leave). 0 = the
  // paper's static subscriber population.
  double subscription_churn = 0.0;

  // --- run control --------------------------------------------------------------
  SimDuration sim_time = SimDuration::Seconds(7200);  // paper: two hours
  std::uint64_t seed = 1;
  // Run the simulation-wide invariant checker (sim/invariant_checker.h)
  // alongside the metrics collector; violations land in
  // RunSummary::invariant_violations.
  bool enable_invariant_checker = false;
  // Also check the delivery guarantee. Only sound for DCRD with
  // loss_rate == 0; see InvariantCheckerConfig.
  bool check_delivery_guarantee = false;
  SimDuration guarantee_window = SimDuration::Seconds(5);

  // Read-only constants kept for perfbench/traced_run.cc, which checks
  // that a config runs on one thread without a shard profile. A scenario
  // always runs on one thread; neither value can be set.
  static constexpr int shards = 1;
  static constexpr std::string_view shard_profile_out{};

  // --- observability ------------------------------------------------------
  // None of these fields affect simulation results: the flight recorder and
  // metrics registry only *read* state and write to stderr/files, never to
  // stdout and never to an RNG stream. Deliberately excluded from
  // Describe() — two configs differing only here are the same experiment.
  //
  // Keep the in-memory flight recorder on (postmortem dumps on invariant
  // violations / engine exceptions; full traces when trace_out is set).
  bool trace = false;
  std::size_t trace_ring_capacity = std::size_t{1} << 16;
  // When non-empty, stream the full trace to this file as JSONL (implies
  // tracing). Readable by tools/dcrd_trace.
  std::string trace_out;
  // When non-empty, write the metrics registry (per-epoch counter/gauge
  // series + histograms) to this file as JSON at end of run.
  std::string metrics_json;
  // When non-empty, sample the metrics registry every timeseries_interval
  // of sim time into a columnar store (counter deltas, gauge levels,
  // histogram raw-bucket deltas, per-broker health) and write it to this
  // file as JSON at end of run ("dcrd-timeseries-v1", obs/timeseries.h),
  // including the windowed deadline-SLO series. Rendered by
  // tools/dcrd_trace --timeseries. Implies a metrics registry even when
  // metrics_json is empty.
  std::string timeseries_out;
  SimDuration timeseries_interval = SimDuration::Seconds(1);
  // When non-empty and the router is DCRD, write the model's view — per
  // (topic, subscriber) expected <d, r> and the publisher's Theorem-1
  // sending list, one JSONL row per destination per monitoring epoch — to
  // this file. tools/dcrd_trace --audit joins it against a trace to compare
  // observed delays with the closed-form expectation. Read-only like the
  // other observability knobs; ignored (with a stderr note) for non-DCRD
  // routers.
  std::string delay_audit_out;

  [[nodiscard]] std::string Describe() const;
};

}  // namespace dcrd
