// Microbenchmark: shortest-path machinery.
//
// Dijkstra dominates tree rebuilds and every ORACLE publish (one
// time-expanded tree per message); Yen dominates Multipath rebuilds. Sized
// to the paper's topologies (20..160 nodes). Items are searches (one tree,
// or one top-5 ranking), so the perf gate reads searches/s.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/shortest_path.h"
#include "graph/topology.h"
#include "graph/yen_ksp.h"
#include "net/failure_schedule.h"

namespace {

using namespace dcrd;

Graph MakeOverlay(std::size_t nodes, std::size_t degree) {
  Rng rng(7);
  return RandomConnected(nodes, degree, rng);
}

void BM_ShortestDelayTree(benchmark::State& state) {
  const Graph graph = MakeOverlay(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShortestDelayTree(graph, NodeId(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShortestDelayTree)->Arg(20)->Arg(80)->Arg(160);

void BM_ShortestHopTree(benchmark::State& state) {
  const Graph graph = MakeOverlay(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShortestHopTree(graph, NodeId(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShortestHopTree)->Arg(20)->Arg(160);

void BM_TimeAwareShortestPathTree(benchmark::State& state) {
  const Graph graph = MakeOverlay(static_cast<std::size_t>(state.range(0)), 8);
  const FailureSchedule failures(99, 0.06);
  const LinkUpAtFn up_at = [&failures](LinkId link, SimTime t) {
    return failures.IsUp(link, t);
  };
  SimTime depart = SimTime::Zero();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TimeAwareShortestPathTree(graph, NodeId(0), depart, up_at));
    depart += SimDuration::Seconds(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeAwareShortestPathTree)->Arg(20)->Arg(160);

void BM_YenTop5(benchmark::State& state) {
  const Graph graph = MakeOverlay(static_cast<std::size_t>(state.range(0)), 8);
  const NodeId dest(static_cast<NodeId::underlying_type>(state.range(0) - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        YenKShortestPaths(graph, NodeId(0), dest, 5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YenTop5)->Arg(20)->Arg(80);

}  // namespace
