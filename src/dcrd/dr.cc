#include "dcrd/dr.h"

namespace dcrd {

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

}  // namespace dcrd
