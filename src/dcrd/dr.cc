#include "dcrd/dr.h"

#include <algorithm>
#include <cmath>

namespace dcrd {

namespace {

template <OrderingPolicy kPolicy>
void SortUsable(std::vector<ViaEntry>& entries) {
  // Unreachable entries (r == 0 or infinite d) go to the back in their
  // original order; including them in the comparators would produce
  // inf*0 = NaN and break strict weak ordering. Moving each usable entry
  // down by one rotation keeps both groups in order without a buffer.
  auto usable_end = entries.begin();
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (IsUsable(*it)) {
      std::rotate(usable_end, it, it + 1);
      ++usable_end;
    }
  }
  // SendsBefore is a strict total order on a list, so the in-place sort
  // yields the one sorted sequence a stable sort would.
  std::sort(entries.begin(), usable_end,
            [](const ViaEntry& a, const ViaEntry& b) {
              return SendsBefore<kPolicy>(a, b);
            });
}

}  // namespace

void SortByTheorem1(std::vector<ViaEntry>& entries) {
  SortUsable<OrderingPolicy::kTheorem1>(entries);
}

void SortByPolicy(std::vector<ViaEntry>& entries, OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kTheorem1:
      SortUsable<OrderingPolicy::kTheorem1>(entries);
      return;
    case OrderingPolicy::kDelayFirst:
      SortUsable<OrderingPolicy::kDelayFirst>(entries);
      return;
    case OrderingPolicy::kReliabilityFirst:
      SortUsable<OrderingPolicy::kReliabilityFirst>(entries);
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
