// Microbenchmark: the DCRD <d,r> fixed point and sending-list build.
//
// This is the per-epoch cost that dominates large-N DCRD runs (Fig. 5):
// one DrSolver per rebuild, one SolveEpoch over every (topic, subscriber)
// pair. BM_RebuildDestinations is that whole epoch on one worker and is the
// one the CI perf gate reads (it reports items/s = destinations/s);
// BM_RebuildDestinationsAllCores fans the same epoch over every core.
#include <benchmark/benchmark.h>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "dcrd/dr_computation.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
#include "net/link_monitor.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace {

using namespace dcrd;

struct Fixture {
  Graph graph;
  FailureSchedule failures{123, 0.06};
  LinkMonitor monitor;
  std::vector<double> publisher_dist;

  explicit Fixture(std::size_t nodes)
      : graph([&] {
          Rng rng(5);
          return RandomConnected(nodes, 8, rng);
        }()),
        monitor(graph, failures, LinkMonitorConfig{}, Rng(17)) {
    monitor.MeasureAt(SimTime::Zero());
    publisher_dist = MonitoredDistancesFrom(graph, monitor.view(), NodeId(0));
  }
};

void BM_SolveOneDestination(benchmark::State& state) {
  // One destination from a fresh solver: the lifted links, the
  // subscriber's sweep order and unconstrained solve, then the
  // destination.
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const NodeId subscriber(
      static_cast<NodeId::underlying_type>(state.range(0) - 1));
  const double deadline_us =
      3.0 * fixture.publisher_dist[subscriber.underlying()];
  DrComputationConfig config;
  for (auto _ : state) {
    DrSolver solver(fixture.graph, fixture.monitor.view(), config);
    benchmark::DoNotOptimize(
        solver.Solve(subscriber, deadline_us, fixture.publisher_dist));
  }
}
BENCHMARK(BM_SolveOneDestination)->Arg(20)->Arg(80)->Arg(160);

// One monitoring epoch's destinations, solved the way DcrdRouter::Rebuild
// solves them: 10 topics, each broker subscribing with probability 0.4,
// deadlines 3x the shortest path (Sec. IV-A), on `workers` threads.
void RebuildDestinations(benchmark::State& state, int workers) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  ScenarioConfig workload;
  workload.topic_count = 10;
  workload.subscriber_probability_min = 0.4;
  workload.subscriber_probability_max = 0.4;
  Rng rng(23);
  const SubscriptionTable subs =
      GenerateWorkload(fixture.graph, workload, rng);
  const MonitoredView& view = fixture.monitor.view();
  const DrComputationConfig config;
  std::int64_t destinations = 0;
  for (auto _ : state) {
    DrSolver solver(fixture.graph, view, config);
    std::vector<std::vector<double>> publisher_dist(subs.topic_count());
    std::vector<DestinationRequest> requests;
    for (std::size_t t = 0; t < subs.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      publisher_dist[t] =
          MonitoredDistancesFrom(fixture.graph, view, subs.publisher(topic));
      for (const Subscription& sub : subs.subscriptions(topic)) {
        requests.push_back(DestinationRequest{
            sub.subscriber, static_cast<double>(sub.deadline.micros()),
            publisher_dist[t]});
      }
    }
    benchmark::DoNotOptimize(solver.SolveEpoch(requests, workers));
    destinations += static_cast<std::int64_t>(requests.size());
  }
  state.SetItemsProcessed(destinations);
}

// The perf-gate entry: the epoch on one worker, so the gate tracks the
// per-node kernel and not the host's core count.
void BM_RebuildDestinations(benchmark::State& state) {
  RebuildDestinations(state, 1);
}
BENCHMARK(BM_RebuildDestinations)
    ->Arg(40)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// The same epoch on every core, as DcrdRouter::Rebuild runs it outside a
// sweep worker (not gated: it scales with the host).
void BM_RebuildDestinationsAllCores(benchmark::State& state) {
  RebuildDestinations(state, HardwareThreads());
}
BENCHMARK(BM_RebuildDestinationsAllCores)
    ->Arg(40)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
