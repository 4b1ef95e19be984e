#include "dcrd/dr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcrd/dr_computation.h"

namespace dcrd {
namespace {

ViaEntry Entry(std::uint32_t id, double d, double r) {
  return ViaEntry{NodeId(id), LinkId(id), d, r};
}

// Sorts usable entries with the comparator every sending list is built
// with.
void SortInSendingOrder(std::vector<ViaEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            SendsBefore<OrderingPolicy::kTheorem1>);
}

TEST(LiftAcrossLinkTest, AppliesEquationTwo) {
  // Eq. 2: d_via = alpha^(m) + d_i, r_via = gamma^(m) * r_i.
  const LinkModel link{12'000.0, 0.8};
  const DR dr_i{30'000.0, 0.9};
  const ViaEntry entry = LiftAcrossLink(NodeId(4), LinkId(2), link, dr_i);
  EXPECT_DOUBLE_EQ(entry.d_via_us, 42'000.0);
  EXPECT_DOUBLE_EQ(entry.r_via, 0.72);
  EXPECT_EQ(entry.neighbor, NodeId(4));
  EXPECT_EQ(entry.link, LinkId(2));
}

TEST(CombineOrderedTest, SingleEntry) {
  const DR dr = CombineOrdered({Entry(1, 10'000, 0.5)});
  EXPECT_DOUBLE_EQ(dr.d_us, 10'000.0);
  EXPECT_DOUBLE_EQ(dr.r, 0.5);
}

TEST(CombineOrderedTest, TwoEntriesMatchHandComputation) {
  // Eq. 3 by hand: d = [d1 r1 + (d1+d2)(1-r1) r2] / [1-(1-r1)(1-r2)].
  const double d1 = 10'000, r1 = 0.6, d2 = 20'000, r2 = 0.5;
  const DR dr = CombineOrdered({Entry(1, d1, r1), Entry(2, d2, r2)});
  const double expected_r = 1 - (1 - r1) * (1 - r2);
  const double expected_d =
      (d1 * r1 + (d1 + d2) * (1 - r1) * r2) / expected_r;
  EXPECT_NEAR(dr.r, expected_r, 1e-12);
  EXPECT_NEAR(dr.d_us, expected_d, 1e-9);
}

TEST(CombineOrderedTest, EmptyListUnreachable) {
  const DR dr = CombineOrdered({});
  EXPECT_FALSE(dr.reachable());
  EXPECT_TRUE(std::isinf(dr.d_us));
}

TEST(CombineOrderedTest, OrderDoesNotChangeR) {
  // Section III-C: "the ordering of the nodes on the list does not affect
  // the delivery ratio r_X".
  std::vector<ViaEntry> entries = {Entry(1, 10'000, 0.3), Entry(2, 5'000, 0.7),
                                   Entry(3, 50'000, 0.9)};
  const DR forward = CombineOrdered(entries);
  std::reverse(entries.begin(), entries.end());
  const DR backward = CombineOrdered(entries);
  EXPECT_NEAR(forward.r, backward.r, 1e-12);
  EXPECT_NE(forward.d_us, backward.d_us);
}

TEST(CombineOrderedTest, SkipsUnreachableEntries) {
  const DR with_dead = CombineOrdered(
      {Entry(1, 10'000, 0.5), Entry(2, kInfiniteDelay, 0.0)});
  const DR without = CombineOrdered({Entry(1, 10'000, 0.5)});
  EXPECT_DOUBLE_EQ(with_dead.d_us, without.d_us);
  EXPECT_DOUBLE_EQ(with_dead.r, without.r);
}

TEST(CombineOrderedTest, RNeverExceedsOne) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ViaEntry> entries;
    const int n = static_cast<int>(rng.NextInRange(1, 8));
    for (int i = 0; i < n; ++i) {
      entries.push_back(Entry(static_cast<std::uint32_t>(i),
                              rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.01, 1.0)));
    }
    const DR dr = CombineOrdered(entries);
    EXPECT_GT(dr.r, 0.0);
    EXPECT_LE(dr.r, 1.0 + 1e-12);
    EXPECT_GE(dr.d_us, entries.front().d_via_us - 1e-9);
  }
}

TEST(CombineOrderedTest, PerfectFirstEntryShadowsRest) {
  // r1 = 1: later entries contribute nothing.
  const DR dr =
      CombineOrdered({Entry(1, 10'000, 1.0), Entry(2, 1'000, 0.9)});
  EXPECT_DOUBLE_EQ(dr.d_us, 10'000.0);
  EXPECT_DOUBLE_EQ(dr.r, 1.0);
}

TEST(SortByTheorem1Test, SortsByDOverR) {
  // d/r keys: 20k/0.4=50k, 30k/0.9≈33.3k, 10k/0.25=40k → order 2,3,1.
  std::vector<ViaEntry> entries = {Entry(1, 20'000, 0.4),
                                   Entry(2, 30'000, 0.9),
                                   Entry(3, 10'000, 0.25)};
  SortInSendingOrder(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(1));
}

TEST(SortByTheorem1Test, TieBreaksByNeighborId) {
  std::vector<ViaEntry> entries = {Entry(5, 10'000, 0.5),
                                   Entry(2, 20'000, 1.0)};
  SortInSendingOrder(entries);  // equal d/r = 20k
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(5));
}

TEST(SortByTheorem1Test, UnreachableEntriesGoLast) {
  // Node 0 of a star over links of gamma 0.5 reads three neighbours that
  // all pass its budget; two are reachable only with an r so small that
  // r_via underflows to 0. The list holds the usable entry first, then the
  // two unusable ones in arc order, and only the usable one enters Eq. 3.
  Graph graph(4);
  for (std::uint32_t v = 1; v < 4; ++v) {
    graph.AddEdge(NodeId(0), NodeId(v), SimDuration::Millis(10));
  }
  const MonitoredView view(std::vector<SimDuration>(3, SimDuration::Millis(10)),
                           std::vector<double>(3, 0.5));
  const LiftedAdjacency adjacency(graph, view, 1);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<DR> heard = {DR{20'000, tiny}, DR{10'000, 0.5},
                                 DR{5'000, tiny}};
  const auto neighbor_dr = [&](std::uint32_t a) -> const DR& {
    return heard[a];
  };
  std::vector<std::uint32_t> warm = {2, 1, 0};
  EvaluationScratch scratch;
  SortEligible<OrderingPolicy::kTheorem1>(adjacency, 0, kInfiniteDelay,
                                          neighbor_dr, warm.data(), scratch);
  std::vector<Neighbor> list(3);
  list.resize(WriteList(adjacency, 0, kInfiniteDelay, neighbor_dr, scratch,
                        list.data()) -
              list.data());
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].peer, NodeId(2));
  EXPECT_EQ(list[1].peer, NodeId(1));
  EXPECT_EQ(list[2].peer, NodeId(3));
  const DR dr = CombineOrdered(scratch.sorted);
  EXPECT_DOUBLE_EQ(dr.d_us, 20'000.0);
  EXPECT_DOUBLE_EQ(dr.r, 0.25);
}

TEST(SortByTheorem1Test, SortedOrderMinimizesAmongAdjacentSwaps) {
  // The proof's exchange argument: swapping any adjacent pair of the sorted
  // order cannot decrease d.
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ViaEntry> entries;
    const int n = static_cast<int>(rng.NextInRange(2, 7));
    for (int i = 0; i < n; ++i) {
      entries.push_back(Entry(static_cast<std::uint32_t>(i),
                              rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.05, 1.0)));
    }
    SortInSendingOrder(entries);
    const double best = CombineOrdered(entries).d_us;
    for (int k = 0; k + 1 < n; ++k) {
      auto swapped = entries;
      std::swap(swapped[k], swapped[k + 1]);
      EXPECT_GE(CombineOrdered(swapped).d_us, best - 1e-6);
    }
  }
}

}  // namespace
}  // namespace dcrd
