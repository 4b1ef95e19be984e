// The <d, r> algebra at the heart of DCRD (Section III-B/III-C).
//
//   d — expected delay from the moment a node holds a packet until the
//       packet reaches subscriber S, conditional on eventual delivery;
//   r — probability the node delivers to S (with expected delay d).
//
// Eq. 2 lifts a neighbour's <d_i, r_i> across the connecting link;
// Eq. 3 folds an *ordered* sending list into the node's own <d_X, r_X>;
// Theorem 1 says the fold is minimised by ordering entries ascending in
// d_via / r_via — the order SendsBefore<kTheorem1> sorts every sending list
// in, verified exhaustively against all permutations in the tests.
#pragma once

#include <limits>
#include <vector>

#include "common/ids.h"
#include "dcrd/link_model.h"

namespace dcrd {

struct DR {
  double d_us = std::numeric_limits<double>::infinity();
  double r = 0.0;

  [[nodiscard]] bool reachable() const { return r > 0.0; }
  friend bool operator==(const DR&, const DR&) = default;
};

inline constexpr double kInfiniteDelay = std::numeric_limits<double>::infinity();

// One sending-list entry: reaching S via `neighbor`, Eq. 2 applied.
struct ViaEntry {
  NodeId neighbor;
  LinkId link;
  double d_via_us = kInfiniteDelay;  // alpha^(m) + d_i
  double r_via = 0.0;                // gamma^(m) * r_i
};

// Eq. 2: lift <d_i, r_i> across a link with m-transmission model `link_m`.
inline ViaEntry LiftAcrossLink(NodeId neighbor, LinkId link,
                               const LinkModel& link_m, const DR& dr_i) {
  return ViaEntry{neighbor, link, link_m.alpha_us + dr_i.d_us,
                  link_m.gamma * dr_i.r};
}

// Sending-list ordering policies. kTheorem1 is DCRD; the others exist for
// the ablation bench, quantifying what the proof buys in vivo:
//   kDelayFirst       — ascending expected delay d_via (what a naive
//                       implementation sorts by),
//   kReliabilityFirst — descending delivery ratio r_via.
enum class OrderingPolicy { kTheorem1, kDelayFirst, kReliabilityFirst };

// Whether an entry can be sent on at all: a positive r_via and a finite
// d_via. Only usable entries are ordered, and only they enter Eq. 3.
inline bool IsUsable(const ViaEntry& entry) {
  return entry.r_via > 0.0 && entry.d_via_us < kInfiniteDelay;
}

// The order kPolicy sends usable entries in (Theorem 1: ascending
// d_via/r_via). Every policy ends in the neighbour-id tie-break and a list
// holds each neighbour once, so this is a strict total order on a list:
// any correct sort of the same entries yields the same sequence, whatever
// order they arrive in. Unusable entries are never compared (inf * 0 would
// be NaN); a sending list puts them after the usable ones
// (dr_computation.h).
template <OrderingPolicy kPolicy>
bool SendsBefore(const ViaEntry& a, const ViaEntry& b) {
  if constexpr (kPolicy == OrderingPolicy::kTheorem1) {
    // d_a/r_a < d_b/r_b via cross-multiplication (exact, no division).
    const double lhs = a.d_via_us * b.r_via;
    const double rhs = b.d_via_us * a.r_via;
    if (lhs != rhs) return lhs < rhs;
  } else if constexpr (kPolicy == OrderingPolicy::kDelayFirst) {
    if (a.d_via_us != b.d_via_us) return a.d_via_us < b.d_via_us;
  } else {
    if (a.r_via != b.r_via) return a.r_via > b.r_via;
  }
  return a.neighbor < b.neighbor;
}

// Eq. 3 over an ordered list: the node tries entry 1 first, then entry 2,
// and so on; the numerator accumulates (sum of d up to i) * P(first success
// at i), the denominator is the overall success probability. Folds any
// order it is given (unusable entries contribute nothing), so tests also
// use it to compare orders.
DR CombineOrdered(const std::vector<ViaEntry>& entries);

}  // namespace dcrd
