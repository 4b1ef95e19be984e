#include "routing/oracle_router.h"

#include "graph/shortest_path.h"

namespace dcrd {

void OracleRouter::PlanRoutes(const Message& message, RouteSet& routes) {
  const FailureSchedule& failures = context().network->failures();
  const NodeFailureSchedule& node_failures =
      context().network->node_failures();
  const Graph& topology = graph();
  const SimTime now = context().network->scheduler().now();
  // A down publisher cannot transmit at all this instant.
  if (!node_failures.IsUp(message.publisher, now)) return;
  // A hop is admissible at its entry instant only if the link and both its
  // endpoint brokers are up, as OverlayNetwork::Transmit requires. Broker
  // crashes are not consulted: a copy routed through a crashed broker is
  // lost there.
  const LinkUpAtFn up_at = [&](LinkId link, SimTime t) {
    const EdgeSpec& edge = topology.edge(link);
    return failures.IsUp(link, t) && node_failures.IsUp(edge.a, t) &&
           node_failures.IsUp(edge.b, t);
  };
  // Ground-truth delays: the oracle is omniscient, not estimate-bound. A
  // subscriber the tree does not reach is momentarily partitioned off.
  RoutesAlong(
      TimeAwareShortestPathTree(topology, message.publisher, now, up_at),
      message.topic, routes);
}

}  // namespace dcrd
