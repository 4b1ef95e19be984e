// ORACLE baseline (paper Section IV-B, item 3).
//
// "Routing tree with the shortest-delay path avoiding any failures since
// the condition of entire network is known. This oracle (or optimal)
// solution provides the performance upper bound."
//
// At every publish instant the oracle plans one earliest-arrival tree in
// the time-expanded network and routes every subscriber along it: a hop may
// only be entered at an instant the ground-truth failure schedule has it
// up — including failures that will only begin while the packet is in
// flight. The oracle is the single component allowed to read the schedule
// (and its future); packet loss Pl is genuinely random and even the oracle
// cannot dodge it.
#pragma once

#include "routing/source_routed.h"

namespace dcrd {

class OracleRouter final : public SourceRoutedRouter {
 public:
  explicit OracleRouter(RouterContext context)
      : SourceRoutedRouter(context) {}

  [[nodiscard]] std::string_view name() const override { return "ORACLE"; }

 protected:
  std::vector<Route> RoutesFor(const Message& message) override;
};

}  // namespace dcrd
