#include "dcrd/dcrd_router.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>

#include "common/parallel_for.h"
#include "dcrd/model_row.h"
#include "obs/flight_recorder.h"

namespace dcrd {

DcrdRouter::DcrdRouter(RouterContext context, DcrdConfig config)
    : context_(context),
      config_(config),
      transport_(*context_.network,
                 [this](NodeId at, const Packet& packet, NodeId from) {
                   OnArrival(at, packet, from);
                 },
                 context_.MakeTransportConfig(),
                 // A retired copy can no longer land anywhere.
                 [this](std::uint64_t owner) {
                   ReleaseRecord(RecordOfTag(owner));
                 }) {
  DCRD_CHECK(context_.network != nullptr);
  DCRD_CHECK(context_.subscriptions != nullptr);
  DCRD_CHECK(context_.sink != nullptr);
  config_.computation.max_transmissions = context_.max_transmissions;
  // The gossip runs the paper's Theorem-1 recursion only. Another ordering
  // can count to infinity, and unlike the solver the gossip has no sweep
  // cap to stop it.
  DCRD_CHECK(!config_.use_distributed_computation ||
             config_.computation.ordering == OrderingPolicy::kTheorem1)
      << "distributed mode needs the Theorem-1 ordering";
  // Responsibility keys hold node ids in 20 bits.
  DCRD_CHECK(context_.network->graph().node_count() <= (std::size_t{1} << 20))
      << "too many brokers for a responsibility key";
  crash_round_.assign(context_.network->graph().node_count(), 0);
  path_stamp_.assign(context_.network->graph().node_count(), 0);
  resync_until_.assign(context_.network->graph().node_count(), SimTime());
  resync_round_.assign(context_.network->graph().node_count(), 0);
}

void DcrdRouter::Rebuild(const MonitoredView& view) {
  view_ = &view;
  transport_.ClearDedupState();
  // Every responsibility is handled afresh in the new epoch, so no key
  // carries a crash round any more.
  records_.ForEachLiveHandle([this](SlotHandle record) {
    records_.Get(record)->responsibilities.clear();
  });
  std::fill(crash_round_.begin(), crash_round_.end(), 0);
  // Retry budgets reset with the epoch; anything still parked gets a fresh
  // chance against the newly measured topology.
  persisted_.clear();
  // Freshly rebuilt tables supersede any in-progress crash resync — the
  // restarted broker's state is now exactly as good as everyone else's.
  std::fill(resync_until_.begin(), resync_until_.end(), SimTime());

  const Graph& graph = context_.network->graph();
  const SubscriptionTable& subs = *context_.subscriptions;
  // Retire last epoch's gossip; stragglers on the wire are ignored, so no
  // retired protocol reads the adjacency replaced below.
  for (GossipPair& gossip : gossip_) {
    gossip.constrained->Stop();
    if (gossip.unconstrained) gossip.unconstrained->Stop();
  }
  tables_.clear();
  gossip_.clear();
  adjacency_.reset();
  subscriber_index_.assign(subs.topic_count() * graph.node_count(),
                           kNoSubscriber);
  // One solver per epoch: it shares the lifted links across every
  // destination and each subscriber's sweep order and unconstrained solve
  // across that subscriber's topics, and keeps the tables until the next
  // rebuild replaces it.
  solver_.reset();
  if (config_.use_distributed_computation) {
    // Every gossip of the epoch reads the links lifted once.
    adjacency_.emplace(graph, view, context_.max_transmissions);
  } else {
    solver_.emplace(graph, view, config_.computation);
  }
  // The solver's requests view their topic's publisher distances.
  std::vector<std::vector<double>> publisher_dist(subs.topic_count());
  std::vector<DestinationRequest> requests;
  std::uint32_t next_index = 0;
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    publisher_dist[t] =
        MonitoredDistancesFrom(graph, view, subs.publisher(topic));
    for (const Subscription& sub : subs.subscriptions(topic)) {
      const double deadline_us = static_cast<double>(sub.deadline.micros());
      subscriber_index_[t * graph.node_count() + sub.subscriber.underlying()] =
          next_index++;
      if (solver_) {
        requests.push_back(DestinationRequest{sub.subscriber, deadline_us,
                                              publisher_dist[t]});
        continue;
      }
      GossipPair gossip;
      gossip.constrained = std::make_shared<DistributedDrComputation>(
          *context_.network, sub.subscriber, *adjacency_,
          DeadlineBudgets(deadline_us, publisher_dist[t], sub.subscriber),
          config_.distributed);
      gossip.constrained->Start();
      if (config_.best_effort_fallback) {
        gossip.unconstrained = std::make_shared<DistributedDrComputation>(
            *context_.network, sub.subscriber, *adjacency_,
            std::vector<double>(graph.node_count(), kInfiniteDelay),
            config_.distributed);
        gossip.unconstrained->Start();
      }
      gossip_.push_back(std::move(gossip));
    }
  }
  if (!solver_) return;
  // The whole epoch in one call, on every idle core (inline inside a sweep
  // worker); the views and counters match a serial solve's.
  tables_ = solver_->SolveEpoch(requests, HardwareThreads());
  for (const DestinationTables& tables : tables_) {
    ++solve_stats_.solves;
    solve_stats_.sweeps += static_cast<std::uint64_t>(tables.sweeps_used);
    if (!tables.converged) ++solve_stats_.unconverged;
  }
}

std::uint32_t DcrdRouter::SubscriberIndex(TopicId topic,
                                          NodeId subscriber) const {
  const std::size_t slot =
      topic.underlying() * context_.network->graph().node_count() +
      subscriber.underlying();
  return slot < subscriber_index_.size() ? subscriber_index_[slot]
                                         : kNoSubscriber;
}

std::optional<NodeTables> DcrdRouter::GetNodeTables(TopicId topic,
                                                    NodeId subscriber,
                                                    NodeId node) const {
  const std::uint32_t index = SubscriberIndex(topic, subscriber);
  if (index == kNoSubscriber) return std::nullopt;
  if (config_.use_distributed_computation) {
    const GossipPair& gossip = gossip_[index];
    return NodeTables{gossip.constrained->dr(node),
                      gossip.constrained->list(node),
                      gossip.unconstrained ? gossip.unconstrained->list(node)
                                           : std::span<const Neighbor>()};
  }
  return tables_[index].per_node[node.underlying()];
}

const DestinationTables* DcrdRouter::FindTables(TopicId topic,
                                                NodeId subscriber) const {
  DCRD_CHECK(!config_.use_distributed_computation)
      << "solver tables are not materialised in distributed mode";
  const std::uint32_t index = SubscriberIndex(topic, subscriber);
  if (index == kNoSubscriber) return nullptr;
  return &tables_[index];
}

const DestinationTables& DcrdRouter::TablesFor(TopicId topic,
                                               NodeId subscriber) const {
  const DestinationTables* tables = FindTables(topic, subscriber);
  DCRD_CHECK(tables != nullptr)
      << subscriber << " not subscribed to " << topic;
  return *tables;
}

void DcrdRouter::WriteAuditSnapshot(std::ostream& os, SimTime now) const {
  const SubscriptionTable& subs = *context_.subscriptions;
  ModelRow row;
  row.t_us = now.micros();
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    for (const Subscription& sub : subs.subscriptions(topic)) {
      const std::optional<NodeTables> tables =
          GetNodeTables(topic, sub.subscriber, publisher);
      if (!tables) continue;
      // Self-subscriptions deliver instantly at the publisher and
      // unreachable destinations produce no deliveries to audit; both would
      // only add meaningless rows.
      if (sub.subscriber == publisher) continue;
      if (!tables->dr.reachable() || !std::isfinite(tables->dr.d_us)) {
        continue;
      }
      // Rows are written right after a rebuild, when every new gossip still
      // holds the publisher at <inf,0>; distributed mode writes none.
      DCRD_CHECK(!config_.use_distributed_computation)
          << "no audit rows for gossip tables";
      row.topic = topic.underlying();
      row.pub = publisher.underlying();
      row.sub = sub.subscriber.underlying();
      row.deadline_us = sub.deadline.micros();
      row.d_us = tables->dr.d_us;
      row.r = tables->dr.r;
      // The list's Eq. 2 values as routing sorted them, recomputed from the
      // table's <d,r>.
      row.list.clear();
      const ListTable& table =
          tables_[SubscriberIndex(topic, sub.subscriber)]
              .per_node.primary_table();
      for (const Neighbor& hop : tables->primary) {
        const ViaEntry entry =
            ViaEntryOf(table, hop, *view_, context_.max_transmissions);
        if (!std::isfinite(entry.d_via_us) || entry.r_via <= 0.0) continue;
        row.list.push_back(entry);
      }
      WriteModelRow(os, row);
    }
  }
}

void DcrdRouter::Publish(const Message& message) {
  const SubscriptionTable& subs = *context_.subscriptions;
  destinations_scratch_.clear();
  for (const Subscription& sub : subs.subscriptions(message.topic)) {
    if (sub.subscriber == message.publisher) {
      context_.sink->OnDelivered(message, sub.subscriber,
                                 context_.network->scheduler().now());
    } else {
      destinations_scratch_.push_back(sub.subscriber);
    }
  }
  if (destinations_scratch_.empty()) return;
  SlotHandle handle;
  Episode& episode = OpenEpisode(message.publisher,
                                 RecordFor(message.id.value), &handle);
  episode.base.Assign(message, destinations_scratch_);
  DenseIdSet& responsibilities =
      records_.Get(episode.record)->responsibilities;
  for (NodeId subscriber : episode.base.destinations()) {
    responsibilities.Insert(
        ResponsibilityKey(message.publisher, episode.base, subscriber));
  }
  StartEpisode(handle, episode);
}

void DcrdRouter::OnArrival(NodeId at, const Packet& packet, NodeId /*from*/) {
  const bool rerouted_back = packet.OnRoutingPath(at);
  // The arriving copy holds its message's record until this returns.
  const SlotHandle record = LiveRecordOf(packet.message().id.value);
  DenseIdSet& responsibilities = records_.Get(record)->responsibilities;

  destinations_scratch_.clear();
  for (NodeId subscriber : packet.destinations()) {
    // A fresh visit handles each (message, subscriber) responsibility only
    // once; a rerouted-back packet re-opens responsibilities this broker
    // already forwarded into the now-failed subtree.
    const bool fresh =
        responsibilities.Insert(ResponsibilityKey(at, packet, subscriber));
    if (!rerouted_back && !fresh) continue;
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
    } else {
      destinations_scratch_.push_back(subscriber);
    }
  }
  if (destinations_scratch_.empty()) return;
  SlotHandle handle;
  Episode& episode = OpenEpisode(at, record, &handle);
  episode.base.AssignNarrowed(packet, destinations_scratch_);
  StartEpisode(handle, episode);
}

DcrdRouter::Episode& DcrdRouter::OpenEpisode(NodeId node, SlotHandle record,
                                             SlotHandle* handle) {
  Episode* episode = nullptr;
  *handle = episodes_.Acquire(&episode);
  episode->node = node;
  episode->record = record;
  RetainRecord(record);
  return *episode;
}

void DcrdRouter::CloseEpisode(SlotHandle handle) {
  const SlotHandle record = episodes_.Get(handle)->record;
  episodes_.Release(handle);
  ReleaseRecord(record);
}

SlotHandle DcrdRouter::RecordFor(std::uint64_t message_id) {
  const auto [found, inserted] = record_of_.TryEmplace(message_id);
  if (!inserted) return *found;
  MessageRecord* record = nullptr;
  const SlotHandle handle = records_.Acquire(&record);
  record->message_id = message_id;
  record->refs = 0;
  *found = handle;
  return handle;
}

SlotHandle DcrdRouter::LiveRecordOf(std::uint64_t message_id) const {
  const SlotHandle* found = record_of_.Find(message_id);
  DCRD_CHECK(found != nullptr)
      << "no live record for message " << message_id;
  return *found;
}

void DcrdRouter::ReleaseRecord(SlotHandle handle) {
  MessageRecord* record = records_.Get(handle);
  DCRD_CHECK(record != nullptr && record->refs > 0);
  if (--record->refs > 0) return;
  record->responsibilities.clear();
  record_of_.Erase(record->message_id);
  records_.Release(handle);
}

void DcrdRouter::StartEpisode(SlotHandle handle, Episode& episode) {
  const std::size_t n = episode.base.destinations().size();
  episode.pending.resize(n);
  std::iota(episode.pending.begin(), episode.pending.end(), 0U);
  episode.copy.assign(n, 0);
  episode.reroutes.assign(n, 0);
  episode.tried.clear();
  episode.launches = 0;
  episode.in_flight = 0;
  ProcessEpisode(handle);
}

NodeId DcrdRouter::UpstreamOf(const Episode& episode) const {
  const auto& path = episode.base.routing_path();
  if (episode.base.OnRoutingPath(episode.node)) {
    return episode.base.UpstreamOf(episode.node);
  }
  return path.empty() ? NodeId() : path.back();
}

Neighbor DcrdRouter::SelectNextHop(const Episode& episode,
                                   std::uint32_t index,
                                   NodeId upstream) const {
  const std::optional<NodeTables> tables =
      GetNodeTables(episode.base.message().topic,
                    episode.base.destinations()[index], episode.node);
  // The subscriber left (churn) while this packet was in flight: nowhere
  // to send — the caller drops the responsibility.
  if (!tables) return Neighbor{};
  const auto is_tried = [&](NodeId candidate) {
    return std::find(episode.tried.begin(), episode.tried.end(),
                     std::make_pair(index, candidate)) != episode.tried.end();
  };

  if (ResyncActive(episode.node)) {
    // Post-restart best-effort forwarding: this broker's <d,r> tables died
    // with its crash and gossip has not reconverged, so instead of a
    // sending list it walks its physical adjacency — any neighbour not on
    // the routing path, not tried this episode and not known-dead — with
    // the usual upstream backstop below. Delivery never waits for resync.
    for (const Neighbor& n :
         context_.network->graph().neighbors(episode.node)) {
      if (OnStampedPath(n.peer)) continue;
      if (is_tried(n.peer)) continue;
      if (!transport_.PeerAlive(episode.node, n.link)) continue;
      return n;
    }
  } else {
    const auto scan = [&](std::span<const Neighbor> list) {
      for (const Neighbor& hop : list) {
        if (OnStampedPath(hop.peer)) continue;
        if (is_tried(hop.peer)) continue;
        return hop;
      }
      return Neighbor{};
    };
    // The fallback list repeats the primary neighbours; when the primary
    // scan finds nothing, each of them is on the path or tried, so the
    // second scan passes over them.
    Neighbor choice = scan(tables->primary);
    if (!choice.peer.valid() && config_.best_effort_fallback) {
      choice = scan(tables->fallback);
    }
    if (choice.peer.valid()) return choice;
  }

  // Sending list exhausted: reroute to the upstream node (Algorithm 2,
  // lines 10-12). The first reroute is always allowed, so a subscriber gets
  // max(reroute_retry_cap, 1) of them per episode.
  if (!upstream.valid()) return Neighbor{};  // publisher: drop
  if (episode.reroutes[index] >= std::max(config_.reroute_retry_cap, 1)) {
    return Neighbor{};
  }
  return Neighbor{upstream, LinkId()};
}

void DcrdRouter::StampRoutingPath(const Packet& packet) {
  if (++path_pass_ == 0) {
    // The pass counter wrapped: clear every stamp so none matches again.
    std::fill(path_stamp_.begin(), path_stamp_.end(), 0);
    path_pass_ = 1;
  }
  for (const NodeId node : packet.routing_path()) {
    path_stamp_[node.underlying()] = path_pass_;
  }
}

void DcrdRouter::ProcessEpisode(SlotHandle handle) {
  Episode* found = episodes_.Get(handle);
  if (found == nullptr) return;
  Episode& episode = *found;
  const std::vector<NodeId>& destinations = episode.base.destinations();

  // Algorithm 2, lines 13-19: every pending subscriber picks its next hop,
  // and subscribers sharing a hop share one copy. A pass can compute every
  // choice up front: `tried` changes only in OnCopyResolved, reroute
  // counts change only for the group being launched (which leaves
  // `pending`), and SendReliable never calls back into the router.
  const NodeId upstream = UpstreamOf(episode);
  StampRoutingPath(episode.base);
  choices_scratch_.clear();
  for (const std::uint32_t index : episode.pending) {
    choices_scratch_.push_back(SelectNextHop(episode, index, upstream));
  }
  const std::size_t n = episode.pending.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Neighbor hop = choices_scratch_[i];
    if (!hop.peer.valid()) {
      HandleUndeliverable(episode, destinations[episode.pending[i]]);
      continue;
    }
    // The group for this hop launched with its first member.
    bool launched = false;
    for (std::size_t k = 0; k < i && !launched; ++k) {
      launched = choices_scratch_[k].peer == hop.peer;
    }
    if (launched) continue;
    const bool is_reroute = hop.peer == upstream;
    const std::uint32_t launch = ++episode.launches;
    group_scratch_.clear();
    for (std::size_t j = i; j < n; ++j) {
      if (choices_scratch_[j].peer != hop.peer) continue;
      const std::uint32_t index = episode.pending[j];
      episode.copy[index] = launch;
      if (is_reroute) ++episode.reroutes[index];
      group_scratch_.push_back(destinations[index]);
    }
    LaunchCopy(handle, episode, hop, is_reroute, launch);
  }
  episode.pending.clear();
  FinishEpisodeIfIdle(handle);
}

void DcrdRouter::LaunchCopy(SlotHandle handle, Episode& episode, Neighbor hop,
                            bool is_reroute, std::uint32_t launch) {
  if (is_reroute) {
    // Only the upstream hop comes without its link.
    const auto link =
        context_.network->graph().FindEdge(episode.node, hop.peer);
    DCRD_CHECK(link.has_value())
        << "upstream " << hop.peer << " is not adjacent to " << episode.node;
    hop.link = *link;
  }
  send_scratch_.AssignNarrowed(episode.base, group_scratch_);
  send_scratch_.RecordOnPath(episode.node);
  if (is_reroute && context_.recorder != nullptr) {
    context_.recorder->Record(
        TraceEventKind::kReroute, episode.base.message().id.value, 0,
        episode.node, hop.peer, hop.link, 0,
        static_cast<std::uint16_t>(group_scratch_.size()));
  }
  const SimDuration timeout = context_.AckTimeout(view_->alpha(hop.link));
  ++episode.in_flight;
  // The copy keeps its message's record until the transport retires it.
  RetainRecord(episode.record);
  transport_.SendReliable(episode.node, hop.link, std::move(send_scratch_),
                          context_.max_transmissions, timeout,
                          [this, handle, next = hop.peer, launch](bool acked) {
                            OnCopyResolved(handle, next, launch, acked);
                          },
                          OwnerTag(episode.record));
}

void DcrdRouter::OnCopyResolved(SlotHandle handle, NodeId next_hop,
                                std::uint32_t launch, bool acked) {
  Episode* found = episodes_.Get(handle);
  if (found == nullptr) {
    // Only a broker crash releases an episode with copies still unresolved
    // (the crash kills the broker's own pendings without resolving them,
    // but a straggler resolution scheduled before the crash can still
    // land). Without crashes a vanished episode is a bookkeeping bug.
    DCRD_CHECK(context_.network->crashes().enabled())
        << "copy resolved for vanished episode in slot " << handle.slot;
    return;
  }
  Episode& episode = *found;
  --episode.in_flight;

  if (!acked) {
    // Hop failed after m transmissions: mark tried (unless it was the
    // upstream reroute, which stays eligible under the retry cap) and put
    // the group back on the pending list, ascending as it launched.
    const bool was_reroute = next_hop == UpstreamOf(episode);
    for (std::uint32_t index = 0; index < episode.copy.size(); ++index) {
      if (episode.copy[index] != launch) continue;
      if (!was_reroute) episode.tried.emplace_back(index, next_hop);
      episode.pending.push_back(index);
    }
    ProcessEpisode(handle);
    return;
  }
  FinishEpisodeIfIdle(handle);
}

void DcrdRouter::RecordUndeliverable(NodeId node, const Packet& base,
                                     NodeId subscriber) {
  if (context_.recorder == nullptr) return;
  context_.recorder->Record(
      TraceEventKind::kDrop, base.message().id.value, 0, node, subscriber,
      LinkId(), static_cast<std::uint8_t>(TraceDropReason::kUndeliverable));
}

void DcrdRouter::HandleUndeliverable(const Episode& episode,
                                     NodeId subscriber) {
  const NodeId node = episode.node;
  const Packet& base = episode.base;
  if (!config_.enable_persistence) {
    ++dropped_undeliverable_;
    RecordUndeliverable(node, base, subscriber);
    return;
  }
  const auto key = std::make_tuple(node, base.message().id.value, subscriber);
  int& attempts = persisted_[key];
  if (attempts >= config_.persistence_max_retries) {
    persisted_.erase(key);
    ++dropped_undeliverable_;
    RecordUndeliverable(node, base, subscriber);
    return;
  }
  ++attempts;
  ++persisted_packets_;
  const Message message = base.message();
  const int generation = attempts;
  // The parked retry keeps the message's record until its timer fires; the
  // timer finds it by message id.
  RetainRecord(episode.record);
  context_.network->scheduler().ScheduleAfter(
      config_.persistence_retry_interval,
      [this, node, message, subscriber, generation] {
        const SlotHandle record = LiveRecordOf(message.id.value);
        // Parked packets are volatile state: if the broker crashed at any
        // point while this one waited, it died with the broker.
        const BrokerCrashSchedule& crashes = context_.network->crashes();
        const SimTime now = context_.network->scheduler().now();
        const SimTime parked_at = SimTime::FromMicros(
            now.micros() - config_.persistence_retry_interval.micros());
        if (crashes.enabled() && crashes.DownDuring(node, parked_at, now)) {
          ++dropped_undeliverable_;
          if (context_.recorder != nullptr) {
            context_.recorder->Record(
                TraceEventKind::kDrop, message.id.value, 0, node, subscriber,
                LinkId(), static_cast<std::uint8_t>(TraceDropReason::kCrash));
          }
          ReleaseRecord(record);
          return;
        }
        ++persistence_retries_;
        // Fresh attempt: empty routing path so the whole overlay is
        // explorable again, and a new persistence generation so the
        // responsibility dedup downstream does not mistake the retry for a
        // duplicate of the failed attempt.
        SlotHandle handle;
        Episode& episode = OpenEpisode(node, record, &handle);
        ReleaseRecord(record);  // the episode holds it now
        episode.base.Assign(message, std::span<const NodeId>(&subscriber, 1));
        episode.base.set_flow_label(static_cast<std::uint8_t>(generation));
        records_.Get(record)->responsibilities.Insert(
            ResponsibilityKey(node, episode.base, subscriber));
        StartEpisode(handle, episode);
      });
}

std::size_t DcrdRouter::OnBrokerCrash(NodeId node) {
  // Transport first: pendings at `node` are killed without resolution and
  // its dedup memory voided, so nothing below ever hears from them again.
  const std::size_t killed = transport_.OnBrokerCrash(node);
  // Open processing episodes at the broker die with it, copy groups
  // included.
  sweep_scratch_.clear();
  episodes_.ForEachLiveHandle([&](SlotHandle handle) {
    if (episodes_.Get(handle)->node == node) sweep_scratch_.push_back(handle);
  });
  for (const SlotHandle handle : sweep_scratch_) CloseEpisode(handle);
  // Every responsibility it handled is forgotten: its keys carry the old
  // round, and keys hold a round in 16 bits.
  const std::uint32_t round = ++crash_round_[node.underlying()];
  DCRD_CHECK(round < (1u << 16))
      << node << " crashed " << round << " times in one epoch";
  // Persistency-mode parked packets were volatile state too. (The armed
  // retry timers re-check the crash schedule when they fire.)
  std::erase_if(persisted_, [&](const auto& kv) {
    return std::get<0>(kv.first) == node;
  });
  // A crash inside a resync window voids the resync; the next restart
  // opens a fresh one and the old completion timer goes stale.
  resync_until_[node.underlying()] = SimTime();
  ++resync_round_[node.underlying()];
  return killed;
}

SimDuration DcrdRouter::ResyncWindow(NodeId node) const {
  SimDuration slowest = SimDuration::Zero();
  for (const Neighbor& n : context_.network->graph().neighbors(node)) {
    const SimDuration alpha = view_ != nullptr
                                  ? view_->alpha(n.link)
                                  : context_.network->graph().edge(n.link).delay;
    slowest = std::max(slowest, context_.AckTimeout(alpha));
  }
  return std::max(SimDuration::Micros(3 * 2 * slowest.micros()),
                  SimDuration::Millis(1));
}

void DcrdRouter::OnBrokerRestart(NodeId node) {
  const SimTime started = context_.network->scheduler().now();
  const SimDuration window = ResyncWindow(node);
  resync_until_[node.underlying()] = started + window;
  const std::uint32_t round = ++resync_round_[node.underlying()];
  ++resync_stats_.resyncs_started;

  if (config_.use_distributed_computation) {
    // Reset the broker's slot in every gossip instance: its pre-crash
    // <d,r> contributions are forgotten, a fresh generation is announced,
    // and neighbours are re-solicited — stale stragglers from before the
    // crash carry the old generation and are dropped on arrival.
    for (GossipPair& gossip : gossip_) {
      gossip.constrained->OnNodeRestart(node);
      if (gossip.unconstrained) gossip.unconstrained->OnNodeRestart(node);
    }
  } else {
    // Solver mode keeps the tables centrally, so model the state re-fetch
    // as one control round trip per neighbour (request up, snapshot back):
    // a fire-and-forget echo — the completion window below is timed
    // separately.
    for (const Neighbor& n : context_.network->graph().neighbors(node)) {
      context_.network->TransmitEcho(node, n.link, {});
    }
  }

  if (context_.recorder != nullptr) {
    context_.recorder->Record(
        TraceEventKind::kResyncStart, 0, 0, node, NodeId(), LinkId(), 0,
        static_cast<std::uint16_t>(
            context_.network->graph().degree(node)));
  }
  context_.network->scheduler().ScheduleAfter(
      window, [this, node, round, started] {
        // Stale if the broker crashed again inside the window.
        if (resync_round_[node.underlying()] != round) return;
        resync_until_[node.underlying()] = SimTime();
        const SimDuration took =
            context_.network->scheduler().now() - started;
        ++resync_stats_.resyncs_completed;
        resync_stats_.total_resync_time += took;
        resync_stats_.max_resync_time =
            std::max(resync_stats_.max_resync_time, took);
        if (context_.recorder != nullptr) {
          // The copy field carries the resync duration in microseconds.
          context_.recorder->Record(
              TraceEventKind::kResyncDone, 0,
              static_cast<std::uint64_t>(took.micros()), node, NodeId(),
              LinkId());
        }
      });
}

void DcrdRouter::FinishEpisodeIfIdle(SlotHandle handle) {
  const Episode* episode = episodes_.Get(handle);
  if (episode == nullptr) return;
  if (episode->pending.empty() && episode->in_flight == 0) {
    CloseEpisode(handle);
  }
}

}  // namespace dcrd
