#include "dcrd/distributed_dr.h"

#include <algorithm>
#include <numeric>

namespace dcrd {

DistributedDrComputation::DistributedDrComputation(
    OverlayNetwork& network, NodeId subscriber,
    const LiftedAdjacency& adjacency, std::vector<double> budget_us,
    DistributedDrConfig config)
    : network_(network),
      subscriber_(subscriber),
      adjacency_(adjacency),
      budget_us_(std::move(budget_us)),
      config_(config),
      states_(adjacency.node_count()),
      heard_(adjacency.arcs.size()),
      warm_(adjacency.arcs.size()),
      lists_(adjacency.arcs.size()),
      generation_(adjacency.node_count(), 0) {
  DCRD_CHECK(adjacency_.node_count() == network_.graph().node_count());
  DCRD_CHECK(budget_us_.size() == adjacency_.node_count());
  states_[subscriber_.underlying()].self = DR{0.0, 1.0};
  // Each node's first evaluation sorts from arc order.
  std::iota(warm_.begin(), warm_.end(), 0U);
  scratch_.Reserve(adjacency_);
}

void DistributedDrComputation::Start() {
  last_change_ = network_.scheduler().now();
  Broadcast(subscriber_);
  ScheduleRebroadcasts(subscriber_);
}

void DistributedDrComputation::Recompute(NodeId node) {
  if (node == subscriber_) return;  // <0,1> is axiomatic
  const std::uint32_t x = node.underlying();
  const double budget_us = budget_us_[x];
  const auto heard = [this](std::uint32_t a) -> const DR& {
    return heard_[a];
  };
  SortEligible<OrderingPolicy::kTheorem1>(adjacency_, x, budget_us, heard,
                                          warm_.data() + adjacency_.begin[x],
                                          scratch_);
  NodeState& state = states_[x];
  Neighbor* const list = lists_.data() + adjacency_.begin[x];
  state.list_size = static_cast<std::uint32_t>(
      WriteList(adjacency_, x, budget_us, heard, scratch_, list) - list);
  const DR updated = CombineOrdered(scratch_.sorted);
  if (!(DrChange(updated, state.self) > config_.update_threshold_us)) return;
  state.self = updated;
  last_change_ = network_.scheduler().now();
  Broadcast(node);
  ScheduleRebroadcasts(node);
}

void DistributedDrComputation::Broadcast(NodeId node) {
  if (stopped_) return;
  const Graph& graph = network_.graph();
  const DR value = states_[node.underlying()].self;
  // The callback holds shared ownership: a protocol retired mid-flight
  // stays alive until its last update lands (and is then ignored).
  auto self = shared_from_this();
  const std::uint32_t generation = generation_[node.underlying()];
  for (const Neighbor& nb : graph.neighbors(node)) {
    ++updates_sent_;
    const NodeId peer = nb.peer;
    network_.Transmit(node, nb.link, TrafficClass::kControl,
                      [self, peer, node, value, generation] {
                        if (self->stopped_) return;
                        self->HandleUpdate(peer, node, value, generation);
                      });
  }
}

void DistributedDrComputation::ScheduleRebroadcasts(NodeId node) {
  NodeState& state = states_[node.underlying()];
  if (config_.rebroadcasts <= 0) return;
  // Top up the per-node counter; a single timer chain drains it.
  state.pending_rebroadcasts = config_.rebroadcasts;
  if (state.rebroadcast_timer_armed) return;
  state.rebroadcast_timer_armed = true;
  auto self = shared_from_this();
  network_.scheduler().ScheduleAfter(
      config_.rebroadcast_gap, [self, node] { self->RebroadcastTick(node); });
}

void DistributedDrComputation::RebroadcastTick(NodeId node) {
  if (stopped_) return;
  NodeState& state = states_[node.underlying()];
  state.rebroadcast_timer_armed = false;
  if (state.pending_rebroadcasts <= 0) return;
  --state.pending_rebroadcasts;
  Broadcast(node);
  if (state.pending_rebroadcasts > 0) {
    state.rebroadcast_timer_armed = true;
    auto self = shared_from_this();
    network_.scheduler().ScheduleAfter(
        config_.rebroadcast_gap,
        [self, node] { self->RebroadcastTick(node); });
  }
}

void DistributedDrComputation::OnNodeRestart(NodeId node) {
  if (stopped_) return;
  const std::uint32_t x = node.underlying();
  NodeState& state = states_[x];
  ++generation_[x];
  std::fill(heard_.begin() + adjacency_.begin[x],
            heard_.begin() + adjacency_.begin[x + 1], DR{});
  state.self = node == subscriber_ ? DR{0.0, 1.0} : DR{};
  state.list_size = 0;
  state.pending_rebroadcasts = 0;
  last_change_ = network_.scheduler().now();
  // Re-announce the reset value (fresh generation) and solicit every
  // neighbour: the request pays one hop, the peer answers with whatever it
  // holds when the request lands.
  Broadcast(node);
  ScheduleRebroadcasts(node);
  auto self = shared_from_this();
  for (const Neighbor& nb : network_.graph().neighbors(node)) {
    const NodeId peer = nb.peer;
    const LinkId link = nb.link;
    network_.Transmit(
        node, link, TrafficClass::kControl, [self, peer, link, node] {
          if (self->stopped_) return;
          const DR value = self->states_[peer.underlying()].self;
          const std::uint32_t generation =
              self->generation_[peer.underlying()];
          ++self->updates_sent_;
          self->network_.Transmit(peer, link, TrafficClass::kControl,
                                  [self, node, peer, value, generation] {
                                    if (self->stopped_) return;
                                    self->HandleUpdate(node, peer, value,
                                                       generation);
                                  });
        });
  }
}

void DistributedDrComputation::HandleUpdate(NodeId at, NodeId from,
                                            const DR& value,
                                            std::uint32_t generation) {
  // A pre-crash straggler: the sender restarted (and bumped its
  // generation) after launching this update — its payload describes state
  // the crash destroyed, so it must not overwrite fresher announcements.
  if (generation != generation_[from.underlying()]) return;
  const std::uint32_t x = at.underlying();
  for (std::uint32_t a = adjacency_.begin[x]; a < adjacency_.begin[x + 1];
       ++a) {
    if (adjacency_.arcs[a].peer == from) {
      heard_[a] = value;
      Recompute(at);
      return;
    }
  }
  // A link that never delivers has no arc: no list reads its value.
  DCRD_CHECK(network_.graph().HasEdge(at, from))
      << "update from non-neighbour " << from << " at " << at;
}

}  // namespace dcrd
