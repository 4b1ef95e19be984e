// Exhaustive verification of Theorem 1: over random instances with up to 8
// neighbours, the d/r-ascending order — the order SendsBefore<kTheorem1>
// sorts every sending list in — achieves the minimum expected delay d_X
// among ALL n! permutations, and the optimum equals Eq. 3 (CombineOrdered)
// evaluated on the sorted order. Parameterised over instance sizes so each
// size reports separately.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcrd/dr.h"

namespace dcrd {
namespace {

class Theorem1Test : public ::testing::TestWithParam<int> {};

void SortInSendingOrder(std::vector<ViaEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            SendsBefore<OrderingPolicy::kTheorem1>);
}

double ExpectedDelay(const std::vector<ViaEntry>& entries) {
  return CombineOrdered(entries).d_us;
}

std::vector<ViaEntry> RandomInstance(Rng& rng, int n) {
  std::vector<ViaEntry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back(ViaEntry{NodeId(static_cast<std::uint32_t>(i)),
                               LinkId(static_cast<std::uint32_t>(i)),
                               rng.NextDoubleInRange(1'000, 100'000),
                               rng.NextDoubleInRange(0.05, 1.0)});
  }
  return entries;
}

double BruteForceMinimum(std::vector<ViaEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const ViaEntry& a, const ViaEntry& b) {
              return a.neighbor < b.neighbor;
            });
  double best = kInfiniteDelay;
  do {
    best = std::min(best, ExpectedDelay(entries));
  } while (std::next_permutation(
      entries.begin(), entries.end(),
      [](const ViaEntry& a, const ViaEntry& b) {
        return a.neighbor < b.neighbor;
      }));
  return best;
}

TEST_P(Theorem1Test, SortedOrderIsGloballyOptimal) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  const int trials = n <= 6 ? 40 : 10;  // 8! = 40320 permutations per trial
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<ViaEntry> entries = RandomInstance(rng, n);
    const double brute = BruteForceMinimum(entries);
    SortInSendingOrder(entries);
    const double theorem = ExpectedDelay(entries);
    EXPECT_NEAR(theorem, brute, std::abs(brute) * 1e-12 + 1e-9)
        << "n=" << n << " trial=" << trial;
  }
}

TEST_P(Theorem1Test, OptimalityConditionHoldsOnSortedOrder) {
  // Eq. 5: d^k/r^k <= d^{k+1}/r^{k+1} for every adjacent pair.
  const int n = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ViaEntry> entries = RandomInstance(rng, n);
    SortInSendingOrder(entries);
    for (int k = 0; k + 1 < n; ++k) {
      EXPECT_LE(entries[k].d_via_us * entries[k + 1].r_via,
                entries[k + 1].d_via_us * entries[k].r_via + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, Theorem1Test,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Theorem1EdgeCases, DegenerateEqualRatios) {
  // All entries share the same d/r: every order gives the same d.
  std::vector<ViaEntry> entries;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const double r = 0.2 + 0.15 * i;
    entries.push_back(ViaEntry{NodeId(i), LinkId(i), 40'000 * r, r});
  }
  const double sorted_d = [&] {
    auto copy = entries;
    SortInSendingOrder(copy);
    return ExpectedDelay(copy);
  }();
  std::sort(entries.begin(), entries.end(),
            [](const ViaEntry& a, const ViaEntry& b) {
              return a.neighbor < b.neighbor;
            });
  do {
    EXPECT_NEAR(ExpectedDelay(entries), sorted_d, 1e-6);
  } while (std::next_permutation(
      entries.begin(), entries.end(),
      [](const ViaEntry& a, const ViaEntry& b) {
        return a.neighbor < b.neighbor;
      }));
}

TEST(Theorem1EdgeCases, HighReliabilityShortDelayFirst) {
  // A fast reliable neighbour must always lead the list.
  std::vector<ViaEntry> entries = {
      ViaEntry{NodeId(0), LinkId(0), 50'000, 0.5},
      ViaEntry{NodeId(1), LinkId(1), 10'000, 0.99},
      ViaEntry{NodeId(2), LinkId(2), 80'000, 0.9},
  };
  SortInSendingOrder(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(1));
}

}  // namespace
}  // namespace dcrd
