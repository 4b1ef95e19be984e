#include "dcrd/dr.h"

#include <algorithm>
#include <cmath>

namespace dcrd {

namespace {

template <typename Less>
void SortUsable(std::vector<ViaEntry>& entries, Less less) {
  // Unreachable entries (r == 0 or infinite d) go to the back in their
  // original order; including them in the comparators would produce
  // inf*0 = NaN and break strict weak ordering. Moving each usable entry
  // down by one rotation keeps both groups in order without a buffer.
  auto usable_end = entries.begin();
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->r_via > 0.0 && it->d_via_us < kInfiniteDelay) {
      std::rotate(usable_end, it, it + 1);
      ++usable_end;
    }
  }
  // Every comparator ends in the neighbour-id tie-break, and a list holds
  // each neighbour once, so `less` is a strict total order: the in-place
  // sort yields the one sorted sequence a stable sort would.
  std::sort(entries.begin(), usable_end, less);
}

}  // namespace

void SortByTheorem1(std::vector<ViaEntry>& entries) {
  SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
    // d_a/r_a < d_b/r_b via cross-multiplication (exact, no division).
    const double lhs = a.d_via_us * b.r_via;
    const double rhs = b.d_via_us * a.r_via;
    if (lhs != rhs) return lhs < rhs;
    return a.neighbor < b.neighbor;
  });
}

void SortByPolicy(std::vector<ViaEntry>& entries, OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kTheorem1:
      SortByTheorem1(entries);
      return;
    case OrderingPolicy::kDelayFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.d_via_us != b.d_via_us) return a.d_via_us < b.d_via_us;
        return a.neighbor < b.neighbor;
      });
      return;
    case OrderingPolicy::kReliabilityFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.r_via != b.r_via) return a.r_via > b.r_via;
        return a.neighbor < b.neighbor;
      });
      return;
  }
  DCRD_CHECK(false) << "unknown ordering policy";
}

DR CombineOrdered(const std::vector<ViaEntry>& entries) {
  double prefix_delay = 0.0;  // sum_{j<=i} d_via_j
  double all_fail = 1.0;      // prod_{j<i} (1 - r_via_j)
  double numerator = 0.0;
  for (const ViaEntry& entry : entries) {
    if (!(entry.d_via_us < kInfiniteDelay) || entry.r_via <= 0.0) continue;
    prefix_delay += entry.d_via_us;
    numerator += prefix_delay * entry.r_via * all_fail;
    all_fail *= 1.0 - entry.r_via;
  }
  const double r = 1.0 - all_fail;
  if (r <= 0.0) return DR{};
  return DR{numerator / r, r};
}

double ExpectedDelayOfOrder(const std::vector<ViaEntry>& entries) {
  return CombineOrdered(entries).d_us;
}

}  // namespace dcrd
