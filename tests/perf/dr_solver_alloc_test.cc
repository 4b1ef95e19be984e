// Allocation contract of the <d,r> control plane. The update rule
// (SortEligible + WriteList) works in reused scratch, and a DrSolver builds
// every list in per-worker scratch buffers, so within an epoch a
// destination that reuses its subscriber's solve allocates nothing and one
// that solves allocates only its own table — the same whether its fixed
// point settles in a few sweeps or runs into the sweep cap, and on any
// number of workers. A whole DcrdRouter::Rebuild then costs a small
// constant per topic, per subscriber, per solved destination and per
// worker, never a list per (destination, broker). Epochs fan out to
// threads, so those tests count the allocations of every thread. The
// gossip runs the same rule in place too: once its scheduler is warm, a
// node's restart and the reconvergence it sets off allocate nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "dcrd/distributed_dr.h"
#include "dcrd/dr_computation.h"
#include "event/scheduler.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
#include "net/overlay_network.h"
#include "routing/test_harness.h"
#include "sim/workload.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

TEST(DrSolverAllocTest, WarmSortEligibleIsAllocationFree) {
  // Node 0 of a 40-leaf star reads usable neighbours in random order and,
  // every seventh one, an eligible neighbour whose r_via underflows to 0
  // that the list must put behind the usable ones.
  constexpr std::uint32_t kLeaves = 40;
  Graph graph(kLeaves + 1);
  for (std::uint32_t k = 1; k <= kLeaves; ++k) {
    graph.AddEdge(NodeId(0), NodeId(k), SimDuration::Millis(10));
  }
  const MonitoredView view(
      std::vector<SimDuration>(kLeaves, SimDuration::Millis(10)),
      std::vector<double>(kLeaves, 0.5));
  const LiftedAdjacency adjacency(graph, view, 1);
  Rng rng(3);
  std::vector<DR> heard;
  for (std::uint32_t k = 0; k < kLeaves; ++k) {
    heard.push_back(DR{rng.NextDoubleInRange(10'000, 90'000),
                       k % 7 == 0 ? std::numeric_limits<double>::denorm_min()
                                  : rng.NextDoubleInRange(0.1, 1.0)});
  }
  const auto neighbor_dr = [&](std::uint32_t a) -> const DR& {
    return heard[a];
  };
  std::vector<std::uint32_t> warm(kLeaves);
  std::iota(warm.begin(), warm.end(), 0U);
  rng.Shuffle(warm);
  EvaluationScratch scratch;
  scratch.Reserve(adjacency);
  std::vector<Neighbor> list(kLeaves);

  AllocProbe probe;
  std::size_t listed = 0;
  for (int round = 0; round < 100; ++round) {
    SortEligible<OrderingPolicy::kTheorem1>(
        adjacency, 0, kInfiniteDelay, neighbor_dr, warm.data(), scratch);
    SortEligible<OrderingPolicy::kDelayFirst>(
        adjacency, 0, kInfiniteDelay, neighbor_dr, warm.data(), scratch);
    SortEligible<OrderingPolicy::kReliabilityFirst>(
        adjacency, 0, kInfiniteDelay, neighbor_dr, warm.data(), scratch);
    listed = static_cast<std::size_t>(
        WriteList(adjacency, 0, kInfiniteDelay, neighbor_dr, scratch,
                  list.data()) -
        list.data());
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "the update rule allocated " << delta.bytes << " bytes";
  EXPECT_EQ(listed, kLeaves);
  EXPECT_TRUE(scratch.unusable);
}

TEST(DistributedDrAllocTest, WarmRestartIsAllocationFree) {
  // A converged gossip on a lossy 16-broker overlay. Restarting every node
  // once warms the scheduler; after that, one restart and the
  // reconvergence it sets off — the reset, the re-announcement, the
  // solicitations and their answers, and every update they trigger —
  // allocate nothing.
  Rng rng(7);
  const Graph graph = RandomConnected(16, 4, rng);
  const FailureSchedule failures(21, 0.0);
  LinkMonitorConfig monitor_config;
  monitor_config.loss_rate = 1e-2;
  LinkMonitor monitor(graph, failures, monitor_config, Rng(8));
  monitor.MeasureAt(SimTime::Zero());
  const LiftedAdjacency adjacency(graph, monitor.view(), 2);
  Scheduler scheduler;
  OverlayNetwork network(graph, scheduler, failures, 0.0, Rng(3));
  const NodeId subscriber(15);
  const std::vector<double> dist =
      MonitoredDistancesFrom(graph, monitor.view(), NodeId(0));
  auto protocol = std::make_shared<DistributedDrComputation>(
      network, subscriber, adjacency,
      DeadlineBudgets(3.0 * dist[subscriber.underlying()], dist, subscriber));
  protocol->Start();
  scheduler.Run();
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    protocol->OnNodeRestart(NodeId(v));
    scheduler.Run();
  }
  const NodeId node(5);
  ASSERT_TRUE(protocol->dr(node).reachable());
  const std::uint64_t sent = protocol->updates_sent();

  AllocProbe probe;
  protocol->OnNodeRestart(node);
  scheduler.Run();
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "a warm restart allocated " << delta.bytes << " bytes";
  EXPECT_GT(protocol->updates_sent(), sent);
  EXPECT_TRUE(protocol->dr(node).reachable());
}

// What a solved table holds: the <d,r> and offset arrays and, unless every
// list is empty, the entries array, each at its exact size.
test::AllocCounts TableFootprint(const ListTable& table) {
  test::AllocCounts need;
  need.allocations = table.entries.empty() ? 2 : 3;
  need.bytes = table.dr.size() * sizeof(DR) +
               table.begin.size() * sizeof(std::uint32_t) +
               table.entries.size() * sizeof(Neighbor);
  return need;
}

// What one extra worker costs an epoch: its scratch (budgets, sweep order,
// read bounds, warm order, the sorted entries and their arcs, the other
// arcs, the list buffer) and its thread; a fan-out also keeps a list of
// its threads.
constexpr std::uint64_t kScratchArrays = 8;
constexpr std::uint64_t kPerExtraWorker = kScratchArrays + 1;

// One epoch on a fresh solver, counted on every thread.
struct EpochRun {
  test::AllocCounts delta;
  std::uint64_t solved_allocations = 0;  // their tables' footprints
  std::uint64_t solved_bytes = 0;
  int reused = 0;  // took the subscriber's unconstrained solve
  int quick = 0;   // solved, converged within a quarter of the cap
  int capped = 0;  // solved, stopped unconverged at the cap
};

EpochRun RunEpoch(const Graph& graph, const MonitoredView& view,
                  const DrComputationConfig& config,
                  const std::vector<DestinationRequest>& requests,
                  int workers) {
  DrSolver solver(graph, view, config);
  EpochRun run;
  test::ProcessAllocProbe probe;
  const std::vector<DestinationTables> tables =
      solver.SolveEpoch(requests, workers);
  run.delta = probe.delta();
  for (const DestinationTables& t : tables) {
    if (t.reused) {
      ++run.reused;
      continue;
    }
    const auto need = TableFootprint(t.per_node.primary_table());
    run.solved_allocations += need.allocations;
    run.solved_bytes += need.bytes;
    if (t.converged && t.sweeps_used <= config.max_sweeps / 4) ++run.quick;
    if (!t.converged && t.sweeps_used == config.max_sweeps) ++run.capped;
  }
  return run;
}

TEST(DrSolverAllocTest, SolveAllocatesOnlyItsTablesWhateverItsSweepCount) {
  Rng rng(11);
  const Graph graph = RandomConnected(40, 5, rng);
  const FailureSchedule failures(21, 0.1);
  LinkMonitorConfig monitor_config;
  monitor_config.loss_rate = 1e-3;
  LinkMonitor monitor(graph, failures, monitor_config, Rng(8));
  monitor.MeasureAt(SimTime::Zero());
  const MonitoredView& view = monitor.view();
  const DrComputationConfig config;
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));

  // Every subscriber's first destination (the group's sweep order and
  // unconstrained solve come with it), alone and then followed by three
  // more whose budgets bind to different degrees.
  std::vector<DestinationRequest> first, all;
  for (std::uint32_t s = 1; s < graph.node_count(); ++s) {
    const NodeId subscriber(s);
    first.push_back(DestinationRequest{subscriber, 6.0 * dist[s], dist});
    all.push_back(first.back());
    for (const double qos : {1.5, 3.0, 1e6}) {
      all.push_back(DestinationRequest{subscriber, qos * dist[s], dist});
    }
  }
  const EpochRun serial = RunEpoch(graph, view, config, first, 1);
  for (const int workers : {1, 2, 4}) {
    const EpochRun base = RunEpoch(graph, view, config, first, workers);
    const EpochRun full = RunEpoch(graph, view, config, all, workers);
    // The three extra destinations per subscriber: one that reuses the
    // subscriber's solve allocates nothing, and one that solves allocates
    // its table and nothing else, at any worker count and whether its
    // fixed point settles in a few sweeps or runs into the cap.
    EXPECT_EQ(full.delta.allocations - base.delta.allocations,
              full.solved_allocations - base.solved_allocations)
        << workers << " workers";
    EXPECT_GE(full.delta.bytes - base.delta.bytes,
              full.solved_bytes - base.solved_bytes)
        << workers << " workers";
    // Each worker past the first costs its scratch and its thread.
    const std::uint64_t extra_workers =
        ParallelWorkers(first.size(), workers) - 1;
    const std::uint64_t per_worker =
        base.delta.allocations - serial.delta.allocations;
    EXPECT_GE(per_worker, extra_workers * kScratchArrays)
        << workers << " workers";
    EXPECT_LE(per_worker,
              extra_workers * kPerExtraWorker + (extra_workers > 0 ? 1 : 0))
        << workers << " workers";
    // Reuse and both ends of the sweep range were measured.
    EXPECT_GT(full.reused - base.reused, 0);
    EXPECT_GT(full.quick - base.quick, 0);
    EXPECT_GT(full.capped - base.capped, 0);
  }
}

TEST(DrSolverAllocTest,
     RebuildAllocatesPerTopicSubscriberAndSolvedDestination) {
  // A 40-broker degree-5 overlay with 10 topics at Ps = 0.4 and deadlines
  // 3x the shortest path, as in the paper's scenario.
  Rng rng(5);
  testing::RouterHarness h(RandomConnected(40, 5, rng), 0.06, 1e-3);
  ScenarioConfig workload;
  workload.subscriber_probability_min = 0.4;
  workload.subscriber_probability_max = 0.4;
  Rng workload_rng(23);
  h.subscriptions = GenerateWorkload(h.graph, workload, workload_rng);
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());  // sizes the per-broker state

  std::uint64_t solved_total = 0, destinations_total = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    h.monitor.MeasureAt(SimTime::Zero() + SimDuration::Seconds(300 * epoch));
    test::ProcessAllocProbe probe;
    router.Rebuild(h.monitor.view());
    const auto delta = probe.delta();
    std::uint64_t topics = 0, solved = 0, destinations = 0;
    std::set<std::uint32_t> subscribers;
    for (std::size_t t = 0; t < h.subscriptions.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      ++topics;
      for (const Subscription& sub : h.subscriptions.subscriptions(topic)) {
        ++destinations;
        if (!router.TablesFor(topic, sub.subscriber).reused) ++solved;
        subscribers.insert(sub.subscriber.underlying());
      }
    }
    // The epoch ran on this many workers, each with its own scratch and
    // (past the first) its own thread.
    const std::uint64_t workers =
        ParallelWorkers(subscribers.size(), HardwareThreads());
    // Per topic: the publisher's Dijkstra (13 allocations) and its request;
    // per subscriber: its Dijkstra, sweep-order sort and table (17); per
    // solved destination: its table (3); per worker: its scratch and
    // thread (9); per rebuild: the solver, its request grouping and the
    // router's dense arrays.
    const std::uint64_t bound = 16 * topics + 24 * subscribers.size() +
                                4 * solved + kPerExtraWorker * workers + 64;
    EXPECT_LE(delta.allocations, bound)
        << "epoch " << epoch << ": " << topics << " topics, "
        << subscribers.size() << " subscribers, " << solved << " of "
        << destinations << " destinations solved, " << workers
        << " workers";
    solved_total += solved;
    destinations_total += destinations;
  }
  // Both kinds of destination were rebuilt.
  EXPECT_GT(solved_total, 0u);
  EXPECT_LT(solved_total, destinations_total);
}

}  // namespace
}  // namespace dcrd
