#include "dcrd/dcrd_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/flight_recorder.h"

namespace dcrd {

DcrdRouter::DcrdRouter(RouterContext context, DcrdConfig config)
    : context_(context),
      config_(config),
      transport_(*context_.network,
                 [this](NodeId at, const Packet& packet, NodeId from) {
                   OnArrival(at, packet, from);
                 },
                 context_.MakeTransportConfig()) {
  DCRD_CHECK(context_.network != nullptr);
  DCRD_CHECK(context_.subscriptions != nullptr);
  DCRD_CHECK(context_.sink != nullptr);
  config_.computation.max_transmissions = context_.max_transmissions;
  config_.distributed.max_transmissions = context_.max_transmissions;
  config_.distributed.ordering = config_.computation.ordering;
  processed_.resize(context_.network->graph().node_count());
  resync_until_.assign(context_.network->graph().node_count(), SimTime());
  resync_round_.assign(context_.network->graph().node_count(), 0);
}

void DcrdRouter::Rebuild(const MonitoredView& view) {
  view_ = &view;
  transport_.ClearDedupState();
  for (auto& processed : processed_) processed.clear();
  // Retry budgets reset with the epoch; anything still parked gets a fresh
  // chance against the newly measured topology.
  persisted_.clear();
  // Freshly rebuilt tables supersede any in-progress crash resync — the
  // restarted broker's state is now exactly as good as everyone else's.
  std::fill(resync_until_.begin(), resync_until_.end(), SimTime());

  const Graph& graph = context_.network->graph();
  const SubscriptionTable& subs = *context_.subscriptions;
  // Retire last epoch's gossip; stragglers on the wire are ignored.
  for (auto& topic_gossip : gossip_) {
    for (GossipTables& gossip : topic_gossip) {
      if (gossip.constrained) gossip.constrained->Stop();
      if (gossip.unconstrained) gossip.unconstrained->Stop();
    }
  }
  tables_.assign(subs.topic_count(), {});
  gossip_.assign(subs.topic_count(), {});
  subscriber_index_.assign(subs.topic_count(), {});
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    const std::vector<double> publisher_dist =
        MonitoredDistancesFrom(graph, view, publisher);
    for (const Subscription& sub : subs.subscriptions(topic)) {
      if (config_.use_distributed_computation) {
        subscriber_index_[t].emplace(sub.subscriber, gossip_[t].size());
        std::vector<double> budgets(graph.node_count());
        for (std::size_t i = 0; i < graph.node_count(); ++i) {
          budgets[i] =
              static_cast<double>(sub.deadline.micros()) - publisher_dist[i];
        }
        budgets[sub.subscriber.underlying()] =
            std::max(budgets[sub.subscriber.underlying()], 1.0);
        GossipTables gossip;
        gossip.constrained = std::make_shared<DistributedDrComputation>(
            *context_.network, sub.subscriber, view, budgets,
            config_.distributed);
        gossip.constrained->Start();
        if (config_.best_effort_fallback) {
          gossip.unconstrained = std::make_shared<DistributedDrComputation>(
              *context_.network, sub.subscriber, view,
              std::vector<double>(graph.node_count(), kInfiniteDelay),
              config_.distributed);
          gossip.unconstrained->Start();
        }
        gossip_[t].push_back(std::move(gossip));
      } else {
        subscriber_index_[t].emplace(sub.subscriber, tables_[t].size());
        tables_[t].push_back(ComputeDestinationTables(
            graph, view, sub.subscriber,
            static_cast<double>(sub.deadline.micros()), publisher_dist,
            config_.computation));
      }
    }
  }
}

const std::vector<NodeTables>& DcrdRouter::GossipSnapshot(
    const GossipTables& gossip) const {
  const std::uint64_t version =
      gossip.constrained->version() +
      (gossip.unconstrained ? gossip.unconstrained->version() : 0);
  if (version == gossip.snapshot_version) return gossip.snapshot;
  gossip.snapshot = gossip.constrained->Snapshot();
  if (gossip.unconstrained) {
    const std::vector<NodeTables> free_tables =
        gossip.unconstrained->Snapshot();
    for (std::size_t v = 0; v < gossip.snapshot.size(); ++v) {
      std::vector<ViaEntry> fallback = free_tables[v].primary;
      const auto& primary = gossip.snapshot[v].primary;
      std::erase_if(fallback, [&](const ViaEntry& entry) {
        return std::any_of(primary.begin(), primary.end(),
                           [&](const ViaEntry& p) {
                             return p.neighbor == entry.neighbor;
                           });
      });
      gossip.snapshot[v].fallback = std::move(fallback);
    }
  }
  gossip.snapshot_version = version;
  return gossip.snapshot;
}

const NodeTables* DcrdRouter::GetNodeTables(TopicId topic, NodeId subscriber,
                                            NodeId node) const {
  const auto& index = subscriber_index_[topic.underlying()];
  const auto it = index.find(subscriber);
  if (it == index.end()) return nullptr;
  if (config_.use_distributed_computation) {
    const std::vector<NodeTables>& snapshot =
        GossipSnapshot(gossip_[topic.underlying()][it->second]);
    return &snapshot[node.underlying()];
  }
  return &tables_[topic.underlying()][it->second]
              .per_node[node.underlying()];
}

const DestinationTables* DcrdRouter::FindTables(TopicId topic,
                                                NodeId subscriber) const {
  DCRD_CHECK(!config_.use_distributed_computation)
      << "solver tables are not materialised in distributed mode";
  const auto& index = subscriber_index_[topic.underlying()];
  const auto it = index.find(subscriber);
  if (it == index.end()) return nullptr;
  return &tables_[topic.underlying()][it->second];
}

const DestinationTables& DcrdRouter::TablesFor(TopicId topic,
                                               NodeId subscriber) const {
  const DestinationTables* tables = FindTables(topic, subscriber);
  DCRD_CHECK(tables != nullptr)
      << subscriber << " not subscribed to " << topic;
  return *tables;
}

namespace {

// Shortest round-trippable form of a double (%.17g): the auditor recomputes
// d from the list entries and must see exactly the values routing used.
void WriteAuditDouble(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void DcrdRouter::WriteAuditSnapshot(std::ostream& os, SimTime now) const {
  const SubscriptionTable& subs = *context_.subscriptions;
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    for (const Subscription& sub : subs.subscriptions(topic)) {
      const NodeTables* tables =
          GetNodeTables(topic, sub.subscriber, publisher);
      if (tables == nullptr) continue;
      // Self-subscriptions deliver instantly at the publisher and
      // unreachable destinations produce no deliveries to audit; both would
      // only add meaningless rows.
      if (sub.subscriber == publisher) continue;
      if (!tables->dr.reachable() || !std::isfinite(tables->dr.d_us)) {
        continue;
      }
      os << "{\"t\":" << now.micros() << ",\"topic\":" << t
         << ",\"pub\":" << publisher.underlying()
         << ",\"sub\":" << sub.subscriber.underlying()
         << ",\"deadline_us\":" << sub.deadline.micros() << ",\"d_us\":";
      WriteAuditDouble(os, tables->dr.d_us);
      os << ",\"r\":";
      WriteAuditDouble(os, tables->dr.r);
      os << ",\"list\":[";
      bool first = true;
      for (const ViaEntry& entry : tables->primary) {
        if (!std::isfinite(entry.d_via_us) || entry.r_via <= 0.0) continue;
        if (!first) os << ",";
        first = false;
        os << "[" << entry.neighbor.underlying() << ","
           << entry.link.underlying() << ",";
        WriteAuditDouble(os, entry.d_via_us);
        os << ",";
        WriteAuditDouble(os, entry.r_via);
        os << "]";
      }
      os << "]}\n";
    }
  }
}

void DcrdRouter::Publish(const Message& message) {
  const SubscriptionTable& subs = *context_.subscriptions;
  std::vector<NodeId> destinations;
  for (const Subscription& sub : subs.subscriptions(message.topic)) {
    if (sub.subscriber == message.publisher) {
      context_.sink->OnDelivered(message, sub.subscriber,
                                 context_.network->scheduler().now());
    } else {
      destinations.push_back(sub.subscriber);
    }
  }
  if (destinations.empty()) return;
  Packet packet(message, std::move(destinations));
  auto& processed =
      processed_[message.publisher.underlying()][ProcessedKey(packet)];
  processed.insert(packet.destinations().begin(),
                   packet.destinations().end());
  StartEpisode(message.publisher, std::move(packet));
}

void DcrdRouter::OnArrival(NodeId at, const Packet& packet, NodeId /*from*/) {
  const bool rerouted_back = packet.OnRoutingPath(at);
  auto& processed = processed_[at.underlying()][ProcessedKey(packet)];

  std::vector<NodeId> remaining;
  for (NodeId subscriber : packet.destinations()) {
    // A fresh visit handles each (message, subscriber) responsibility only
    // once; a rerouted-back packet re-opens responsibilities this broker
    // already forwarded into the now-failed subtree.
    if (!rerouted_back && processed.contains(subscriber)) continue;
    processed.insert(subscriber);
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
    } else {
      remaining.push_back(subscriber);
    }
  }
  if (remaining.empty()) return;
  StartEpisode(at, packet.WithDestinations(std::move(remaining)));
}

void DcrdRouter::StartEpisode(NodeId node, Packet packet) {
  const std::uint64_t id = next_episode_id_++;
  Episode episode;
  episode.id = id;
  episode.node = node;
  episode.pending = packet.destinations();
  episode.base = std::move(packet);
  episodes_.emplace(id, std::move(episode));
  ProcessEpisode(id);
}

NodeId DcrdRouter::UpstreamOf(const Episode& episode) const {
  const auto& path = episode.base.routing_path();
  if (episode.base.OnRoutingPath(episode.node)) {
    return episode.base.UpstreamOf(episode.node);
  }
  return path.empty() ? NodeId() : path.back();
}

NodeId DcrdRouter::SelectNextHop(const Episode& episode,
                                 NodeId subscriber) const {
  const NodeTables* tables_ptr = GetNodeTables(
      episode.base.message().topic, subscriber, episode.node);
  // The subscriber left (churn) while this packet was in flight: nowhere
  // to send — the caller drops the responsibility.
  if (tables_ptr == nullptr) return NodeId();
  const auto tried_it = episode.tried.find(subscriber);
  const auto is_tried = [&](NodeId candidate) {
    return tried_it != episode.tried.end() && tried_it->second.contains(candidate);
  };

  NodeId choice;
  if (ResyncActive(episode.node)) {
    // Post-restart best-effort forwarding: this broker's <d,r> tables died
    // with its crash and gossip has not reconverged, so instead of a
    // sending list it walks its physical adjacency — any neighbour not on
    // the routing path, not tried this episode and not known-dead — with
    // the usual upstream backstop below. Delivery never waits for resync.
    for (const Neighbor& n :
         context_.network->graph().neighbors(episode.node)) {
      if (episode.base.OnRoutingPath(n.peer)) continue;
      if (is_tried(n.peer)) continue;
      if (!transport_.PeerAlive(episode.node, n.link)) continue;
      choice = n.peer;
      break;
    }
  } else {
    const NodeTables& node_tables = *tables_ptr;
    const auto scan = [&](const std::vector<ViaEntry>& list) {
      for (const ViaEntry& entry : list) {
        if (episode.base.OnRoutingPath(entry.neighbor)) continue;
        if (is_tried(entry.neighbor)) continue;
        return entry.neighbor;
      }
      return NodeId();
    };

    choice = scan(node_tables.primary);
    if (!choice.valid() && config_.best_effort_fallback) {
      choice = scan(node_tables.fallback);
    }
  }
  if (choice.valid()) return choice;

  // Sending list exhausted: reroute to the upstream node (Algorithm 2,
  // lines 10-12), bounded by the retry cap.
  const NodeId upstream = UpstreamOf(episode);
  if (!upstream.valid()) return NodeId();  // publisher: drop
  const auto attempts_it = episode.reroute_attempts.find(subscriber);
  if (attempts_it != episode.reroute_attempts.end() &&
      attempts_it->second >= config_.reroute_retry_cap) {
    return NodeId();
  }
  return upstream;
}

void DcrdRouter::ProcessEpisode(std::uint64_t episode_id) {
  auto it = episodes_.find(episode_id);
  if (it == episodes_.end()) return;
  Episode& episode = it->second;

  while (!episode.pending.empty()) {
    // Decide the next hop for the first pending subscriber, then pull in
    // every other pending subscriber that picks the same hop (Algorithm 2,
    // lines 13-19).
    const NodeId leader = episode.pending.front();
    const NodeId next = SelectNextHop(episode, leader);
    if (!next.valid()) {
      HandleUndeliverable(episode.node, episode.base, leader);
      episode.pending.erase(episode.pending.begin());
      continue;
    }
    std::vector<NodeId> group;
    std::vector<NodeId> still_pending;
    for (NodeId subscriber : episode.pending) {
      if (subscriber == leader || SelectNextHop(episode, subscriber) == next) {
        group.push_back(subscriber);
      } else {
        still_pending.push_back(subscriber);
      }
    }
    episode.pending = std::move(still_pending);

    const bool is_reroute = next == UpstreamOf(episode);
    if (is_reroute) {
      for (NodeId subscriber : group) ++episode.reroute_attempts[subscriber];
    }

    Packet copy = episode.base.WithDestinations(group);
    copy.RecordOnPath(episode.node);
    const auto link = context_.network->graph().FindEdge(episode.node, next);
    DCRD_CHECK(link.has_value())
        << "sending list refers to missing edge " << episode.node << "-"
        << next;
    if (is_reroute && context_.recorder != nullptr) {
      context_.recorder->Record(
          TraceEventKind::kReroute, episode.base.message().id.value, 0,
          episode.node, next, *link, 0,
          static_cast<std::uint16_t>(group.size()));
    }
    const SimDuration timeout = context_.AckTimeout(view_->alpha(*link));
    ++episode.in_flight;
    transport_.SendReliable(
        episode.node, *link, std::move(copy), context_.max_transmissions,
        timeout,
        [this, episode_id, next, group](bool acked) mutable {
          OnCopyResolved(episode_id, next, std::move(group), acked);
        });
  }
  FinishEpisodeIfIdle(episode_id);
}

void DcrdRouter::OnCopyResolved(std::uint64_t episode_id, NodeId next_hop,
                                std::vector<NodeId> subscribers, bool acked) {
  auto it = episodes_.find(episode_id);
  if (it == episodes_.end()) {
    // Only a broker crash erases an episode with copies still unresolved
    // (the crash kills the broker's own pendings without resolving them,
    // but a straggler resolution scheduled before the crash can still
    // land). Without crashes a vanished episode is a bookkeeping bug.
    DCRD_CHECK(context_.network->crashes().enabled())
        << "copy resolved for vanished episode " << episode_id;
    return;
  }
  Episode& episode = it->second;
  --episode.in_flight;

  if (!acked) {
    // Hop failed after m transmissions: mark tried (unless it was the
    // upstream reroute, which stays eligible under the retry cap) and put
    // the subscribers back on the pending list.
    const bool was_reroute = next_hop == UpstreamOf(episode);
    for (NodeId subscriber : subscribers) {
      if (!was_reroute) episode.tried[subscriber].insert(next_hop);
      episode.pending.push_back(subscriber);
    }
    ProcessEpisode(episode_id);
    return;
  }
  FinishEpisodeIfIdle(episode_id);
}

void DcrdRouter::RecordUndeliverable(NodeId node, const Packet& base,
                                     NodeId subscriber) {
  if (context_.recorder == nullptr) return;
  context_.recorder->Record(
      TraceEventKind::kDrop, base.message().id.value, 0, node, subscriber,
      LinkId(), static_cast<std::uint8_t>(TraceDropReason::kUndeliverable));
}

void DcrdRouter::HandleUndeliverable(NodeId node, const Packet& base,
                                     NodeId subscriber) {
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
  context_.network->scheduler().ScheduleAfter(
      config_.persistence_retry_interval,
      [this, node, message, subscriber, generation] {
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
          return;
        }
        ++persistence_retries_;
        // Fresh attempt: empty routing path so the whole overlay is
        // explorable again, and a new persistence generation so the
        // processed-set dedup downstream does not mistake the retry for a
        // duplicate of the failed attempt.
        Packet retry(message, {subscriber});
        retry.set_flow_label(static_cast<std::uint8_t>(generation));
        processed_[node.underlying()][ProcessedKey(retry)].insert(subscriber);
        StartEpisode(node, std::move(retry));
      });
}

std::size_t DcrdRouter::OnBrokerCrash(NodeId node) {
  // Transport first: pendings at `node` are killed without resolution and
  // its dedup windows cleared, so nothing below ever hears from them again.
  const std::size_t killed = transport_.OnBrokerCrash(node);
  // Open processing episodes at the broker die with it.
  std::erase_if(episodes_,
                [&](const auto& kv) { return kv.second.node == node; });
  processed_[node.underlying()].clear();
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
    for (auto& topic_gossip : gossip_) {
      for (GossipTables& gossip : topic_gossip) {
        if (gossip.constrained) gossip.constrained->OnNodeRestart(node);
        if (gossip.unconstrained) gossip.unconstrained->OnNodeRestart(node);
      }
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

void DcrdRouter::FinishEpisodeIfIdle(std::uint64_t episode_id) {
  const auto it = episodes_.find(episode_id);
  if (it == episodes_.end()) return;
  if (it->second.pending.empty() && it->second.in_flight == 0) {
    episodes_.erase(it);
  }
}

}  // namespace dcrd
