// Traced re-run of one scenario cell, for the benchmark's per-layer view.
//
// TracedRun wires the same public components RunScenario does (topology,
// workload, failure/gray/crash schedules, OverlayNetwork, LinkMonitor,
// MetricsCollector / SimInvariantChecker, MakeRouter, Publisher, Scheduler)
// in the same order and with the same RNG fork names, so its RunSummary
// must equal RunScenario's for the same config. Around every call into a
// module it records a wall-clock span; spans stay in memory and are folded
// into per-layer self time and call counts when the cell ends.
//
// Only the single-shard, observability-free configuration is supported —
// the one the benchmark's workloads use.
#pragma once

#include <array>
#include <cstdint>

#include "sim/metrics.h"
#include "sim/scenario.h"

namespace dcrd::perfbench {

// The layers a traced cell is split into: one per module boundary the
// benchmark times, plus the enclosing spans (cell, setup, event loop,
// finish) whose self time is the work not attributed to any child.
enum class Layer : std::uint8_t {
  kCell,            // the whole cell; self time = gaps between spans
  kSetup,           // construction through the first rebuild
  kTopology,        // RandomConnected / FullMesh
  kWorkload,        // GenerateWorkload + ApplySubscriptionChurn
  kMonitor,         // LinkMonitor::MeasureAt
  kDcrdRebuild,     // DcrdRouter::Rebuild
  kRoutingRebuild,  // baseline routers' Rebuild
  kHealth,          // benchmark's own read of the DCRD tables
  kLoop,            // Scheduler::RunUntil + Run; self = data plane
  kChecker,         // SimInvariantChecker::CheckEpoch / CheckEndOfRun
  kPublish,         // Router::Publish
  kDcrdCrash,       // DCRD OnBrokerCrash / OnBrokerRestart
  kRoutingCrash,    // baseline routers' crash hooks
  kFinish,          // end-of-run checks and the summary
  kTeardown,        // destroying the cell's engine state
  kCount,
};

struct LayerTotals {
  std::int64_t self_ns = 0;  // span durations minus their children's
  std::int64_t max_ns = 0;   // longest single span
  std::uint64_t calls = 0;
};

// Control-plane health, read through DcrdRouter::TablesFor after every
// rebuild (zero for baseline routers).
struct ControlPlaneHealth {
  std::uint64_t destinations = 0;  // summed over rebuilds
  std::uint64_t sweeps_total = 0;
  int sweeps_max = 0;
  std::uint64_t unconverged = 0;
  std::uint64_t table_entries_max = 0;  // primary + fallback, per rebuild
};

struct TracedResult {
  RunSummary summary;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::int64_t wall_ns = 0;  // duration of the kCell span
  std::uint64_t events = 0;  // Scheduler::events_executed()
  std::uint64_t data_attempted = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t ack_attempted = 0;
  ControlPlaneHealth health;

  [[nodiscard]] const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
};

// Runs `config` under spans. CHECK-fails on configs RunScenario would run
// sharded or with observability captures.
TracedResult TracedRun(const ScenarioConfig& config);

}  // namespace dcrd::perfbench
