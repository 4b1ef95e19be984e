#include "dcrd/distributed_dr.h"

#include <cmath>

namespace dcrd {

DistributedDrComputation::DistributedDrComputation(
    OverlayNetwork& network, NodeId subscriber, const MonitoredView& view,
    std::vector<double> budget_us, DistributedDrConfig config)
    : network_(network),
      subscriber_(subscriber),
      view_(view),
      budget_us_(std::move(budget_us)),
      config_(config) {
  const Graph& graph = network_.graph();
  DCRD_CHECK(budget_us_.size() == graph.node_count());
  states_.resize(graph.node_count());
  generation_.assign(graph.node_count(), 0);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    states_[v].heard.assign(
        graph.neighbors(NodeId(static_cast<NodeId::underlying_type>(v)))
            .size(),
        DR{});
  }
}

void DistributedDrComputation::Start() {
  states_[subscriber_.underlying()].self = DR{0.0, 1.0};
  ++version_;
  last_change_ = network_.scheduler().now();
  Broadcast(subscriber_);
  ScheduleRebroadcasts(subscriber_);
}

std::vector<ViaEntry> DistributedDrComputation::EligibleEntries(
    NodeId node) const {
  const Graph& graph = network_.graph();
  const NodeState& state = states_[node.underlying()];
  std::vector<ViaEntry> eligible;
  const auto& neighbors = graph.neighbors(node);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const DR& heard = state.heard[i];
    if (!heard.reachable() || !(heard.d_us < budget_us_[node.underlying()])) {
      continue;
    }
    const LinkModel lifted =
        LiftedLink(view_, neighbors[i].link, config_.max_transmissions);
    if (lifted.gamma <= 0.0) continue;
    eligible.push_back(LiftAcrossLink(neighbors[i].peer, neighbors[i].link,
                                      lifted, heard));
  }
  SortByTheorem1(eligible);
  return eligible;
}

void DistributedDrComputation::Recompute(NodeId node) {
  if (node == subscriber_) return;  // <0,1> is axiomatic
  NodeState& state = states_[node.underlying()];
  const DR updated = CombineOrdered(EligibleEntries(node));
  const DR previous = state.self;
  const bool changed =
      updated.reachable() != previous.reachable() ||
      (updated.reachable() &&
       (std::abs(updated.d_us - previous.d_us) > config_.update_threshold_us ||
        std::abs(updated.r - previous.r) * 1e6 >
            config_.update_threshold_us));
  if (!changed) return;
  state.self = updated;
  ++version_;
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
  NodeState& state = states_[node.underlying()];
  ++generation_[node.underlying()];
  state.heard.assign(state.heard.size(), DR{});
  state.self = node == subscriber_ ? DR{0.0, 1.0} : DR{};
  state.pending_rebroadcasts = 0;
  ++version_;
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
  ++updates_received_;
  const Graph& graph = network_.graph();
  const auto& neighbors = graph.neighbors(at);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i].peer == from) {
      states_[at.underlying()].heard[i] = value;
      ++version_;  // heard-values feed the sending lists directly
      Recompute(at);
      return;
    }
  }
  DCRD_CHECK(false) << "update from non-neighbour " << from << " at " << at;
}

ListTable DistributedDrComputation::Snapshot() const {
  const std::size_t n = network_.graph().node_count();
  ListTable table;
  table.dr.resize(n);
  table.begin.reserve(n + 1);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node(static_cast<NodeId::underlying_type>(v));
    table.begin.push_back(static_cast<std::uint32_t>(table.entries.size()));
    if (node == subscriber_) {
      table.dr[v] = DR{0.0, 1.0};
      continue;
    }
    table.dr[v] = states_[v].self;
    for (const ViaEntry& entry : EligibleEntries(node)) {
      table.entries.push_back(Neighbor{entry.neighbor, entry.link});
    }
  }
  table.begin.push_back(static_cast<std::uint32_t>(table.entries.size()));
  return table;
}

}  // namespace dcrd
