#include "obs/analysis/delay_decomposition.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

namespace dcrd {

std::string_view DelayComponentName(int component) {
  switch (component) {
    case 0: return "propagation";
    case 1: return "queueing";
    case 2: return "retransmit_wait";
    case 3: return "reroute_detour";
    case 4: return "residual";
    default: return "unknown";
  }
}

std::int64_t DelayComponentValue(const DelayComponents& components,
                                 int component) {
  switch (component) {
    case 0: return components.propagation_us;
    case 1: return components.queueing_us;
    case 2: return components.retransmit_wait_us;
    case 3: return components.reroute_detour_us;
    case 4: return components.residual_us;
    default: return 0;
  }
}

TraceAnalyzer::CopyEvents& TraceAnalyzer::CopyFor(std::uint64_t copy_id,
                                                  std::uint64_t packet) {
  CopyEvents& copy = copies_[copy_id];
  if (copy.packet == TraceRecord::kNoPacket && packet != TraceRecord::kNoPacket) {
    copy.packet = packet;
    packets_[packet].copies.push_back(copy_id);
  }
  return copy;
}

void TraceAnalyzer::Add(const TraceRecord& r) {
  if (r.t_us > max_t_us_) max_t_us_ = r.t_us;
  auto set_tx = [](std::vector<std::int64_t>& v, std::uint16_t index,
                   std::int64_t value) {
    if (v.size() <= index) v.resize(index + std::size_t{1}, -1);
    v[index] = value;
  };
  switch (r.kind) {
    case TraceEventKind::kPublish: {
      PacketEvents& p = packets_[r.packet];
      p.has_publish = true;
      p.publish_t_us = r.t_us;
      p.publisher = r.node;
      p.topic = r.aux16;
      break;
    }
    case TraceEventKind::kEnqueue: {
      CopyEvents& c = CopyFor(r.copy, r.packet);
      c.from = r.node;
      c.to = r.peer;
      c.link = r.link;
      c.enqueue_t_us = r.t_us;
      break;
    }
    case TraceEventKind::kHopSend:
    case TraceEventKind::kRetransmit: {
      CopyEvents& c = CopyFor(r.copy, r.packet);
      c.from = r.node;
      c.to = r.peer;
      c.link = r.link;
      set_tx(c.tx_times_us, r.aux16, r.t_us);
      break;
    }
    case TraceEventKind::kTimerArmed: {
      CopyEvents& c = CopyFor(r.copy, r.packet);
      // `peer` carries the armed timeout in microseconds for this kind.
      set_tx(c.armed_timeouts_us, r.aux16,
             static_cast<std::int64_t>(r.peer));
      break;
    }
    case TraceEventKind::kAck: {
      // Post-expiry ACKs (aux8=1) carry no packet identity and closed
      // nothing; only the pending-closing ACK anchors the copy's arrival.
      if (r.aux8 != 0 || r.packet == TraceRecord::kNoPacket) break;
      CopyEvents& c = CopyFor(r.copy, r.packet);
      if (c.ack_tx < 0) {
        c.ack_t_us = r.t_us;
        c.ack_tx = static_cast<int>(r.aux16);
      }
      break;
    }
    case TraceEventKind::kBudgetExhausted: {
      CopyEvents& c = CopyFor(r.copy, r.packet);
      c.budget_exhausted_t_us = r.t_us;
      break;
    }
    case TraceEventKind::kDedupSuppress: {
      CopyEvents& c = CopyFor(r.copy, r.packet);
      c.dedup_times_us.push_back(r.t_us);
      break;
    }
    case TraceEventKind::kReroute: {
      packets_[r.packet].reroutes.push_back({r.t_us, r.node, r.peer});
      break;
    }
    case TraceEventKind::kDeliver: {
      PacketEvents& p = packets_[r.packet];
      p.delivers.push_back({r.t_us, r.node});
      if (p.publisher == TraceRecord::kNoId) p.publisher = r.peer;
      break;
    }
    case TraceEventKind::kRebuild:
      rebuild_times_us_.push_back(r.t_us);
      break;
    case TraceEventKind::kGrayStart:
      gray_open_.emplace(r.link, r.t_us);
      break;
    case TraceEventKind::kGrayEnd: {
      auto it = gray_open_.find(r.link);
      const std::int64_t start = it != gray_open_.end() ? it->second : 0;
      if (it != gray_open_.end()) gray_open_.erase(it);
      gray_intervals_[r.link].push_back({start, r.t_us});
      break;
    }
    case TraceEventKind::kDrop:
    case TraceEventKind::kLinkDown:
    case TraceEventKind::kLinkUp:
    case TraceEventKind::kBrokerDown:
    case TraceEventKind::kBrokerUp:
    case TraceEventKind::kPeerDead:
    case TraceEventKind::kPeerAlive:
    case TraceEventKind::kResyncStart:
    case TraceEventKind::kResyncDone:
      break;  // not needed for delay attribution
  }
}

void TraceAnalyzer::AddAll(const std::vector<TraceRecord>& records) {
  for (const TraceRecord& record : records) Add(record);
}

namespace {

// Union length of [lo, hi) intervals; the attribution rule for overlapping
// retransmit timers — a microsecond covered by two timers counts once.
std::int64_t IntervalUnionLength(
    std::vector<std::pair<std::int64_t, std::int64_t>>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t lo = intervals.front().first;
  std::int64_t hi = intervals.front().second;
  for (const auto& [next_lo, next_hi] : intervals) {
    if (next_lo > hi) {
      total += hi - lo;
      lo = next_lo;
      hi = next_hi;
    } else if (next_hi > hi) {
      hi = next_hi;
    }
  }
  return total + (hi - lo);
}

}  // namespace

DecompositionResult TraceAnalyzer::Decompose() const {
  DecompositionResult result;

  // Epoch boundaries: sorted rebuild instants (the engine stamps one at
  // t=0). A trace with no rebuild records is a single epoch starting at 0.
  result.epoch_starts_us = rebuild_times_us_;
  std::sort(result.epoch_starts_us.begin(), result.epoch_starts_us.end());
  result.epoch_starts_us.erase(
      std::unique(result.epoch_starts_us.begin(),
                  result.epoch_starts_us.end()),
      result.epoch_starts_us.end());
  if (result.epoch_starts_us.empty()) result.epoch_starts_us.push_back(0);

  auto epoch_of = [&result](std::int64_t t) {
    const auto it = std::upper_bound(result.epoch_starts_us.begin(),
                                     result.epoch_starts_us.end(), t);
    const auto index = it - result.epoch_starts_us.begin() - 1;
    return index < 0 ? 0 : static_cast<int>(index);
  };

  auto in_gray = [this](std::uint32_t link, std::int64_t t) {
    const auto it = gray_intervals_.find(link);
    if (it != gray_intervals_.end()) {
      for (const auto& [lo, hi] : it->second) {
        if (t >= lo && t < hi) return true;
      }
    }
    const auto open = gray_open_.find(link);
    return open != gray_open_.end() && t >= open->second;
  };

  // Pass 1 — propagation baselines: the minimum ACK-measured flight per
  // (link, sending direction, gray state). Under the out-of-band ACK model
  // an ACK's arrival instant equals the data's arrival instant, so
  // ack_t - tx_time is a pure wire measurement; queueing and jitter only
  // ever raise it, so the minimum is the clear-weather propagation floor.
  std::map<std::tuple<std::uint32_t, std::uint32_t, bool>, std::int64_t>
      baselines;
  for (const auto& [copy_id, c] : copies_) {
    (void)copy_id;
    if (c.ack_tx < 0 ||
        static_cast<std::size_t>(c.ack_tx) >= c.tx_times_us.size()) {
      continue;
    }
    const std::int64_t tx_t = c.tx_times_us[static_cast<std::size_t>(c.ack_tx)];
    if (tx_t < 0 || c.ack_t_us < tx_t) continue;
    const std::int64_t flight = c.ack_t_us - tx_t;
    const auto key = std::make_tuple(c.link, c.from, in_gray(c.link, tx_t));
    const auto it = baselines.find(key);
    if (it == baselines.end() || flight < it->second) baselines[key] = flight;
  }

  // Pass 1b — timer accounting: every armed timeout must equal the gap to
  // the next transmission (or to budget exhaustion after the last one).
  for (const auto& [copy_id, c] : copies_) {
    (void)copy_id;
    const std::size_t n = c.tx_times_us.size();
    for (std::size_t k = 0; k < c.armed_timeouts_us.size(); ++k) {
      const std::int64_t armed = c.armed_timeouts_us[k];
      // kNoId-1 marks a timeout clamped at record time; unverifiable.
      if (armed < 0 || armed >= TraceRecord::kNoId - 1) continue;
      if (k >= n || c.tx_times_us[k] < 0) continue;
      const std::int64_t fired_at = c.tx_times_us[k] + armed;
      if (k + 1 < n && c.tx_times_us[k + 1] >= 0) {
        if (c.tx_times_us[k + 1] != fired_at) {
          ++result.timer_accounting_mismatches;
        }
      } else if (k + 1 == n && c.budget_exhausted_t_us >= 0 &&
                 c.ack_tx < 0) {
        if (c.budget_exhausted_t_us != fired_at) {
          ++result.timer_accounting_mismatches;
        }
      }
    }
  }

  std::map<std::uint32_t, LinkDelayStats> link_stats;
  std::map<std::uint32_t, BrokerDelayStats> broker_stats;
  std::map<int, EpochDelayStats> epoch_stats;

  // Pass 2 — walk every first delivery backwards to its publisher.
  for (const auto& [packet_id, p] : packets_) {
    if (p.delivers.empty()) continue;
    if (!p.has_publish) {
      // Count distinct subscribers whose delay is unknowable.
      std::set<std::uint32_t> subs;
      for (const DeliverEvent& d : p.delivers) subs.insert(d.subscriber);
      result.skipped_no_publish += subs.size();
      continue;
    }
    // First arrival per subscriber; later arrivals are duplicates.
    std::map<std::uint32_t, std::int64_t> first_arrival;
    for (const DeliverEvent& d : p.delivers) {
      const auto [it, inserted] = first_arrival.emplace(d.subscriber, d.t_us);
      if (!inserted) {
        ++result.duplicate_deliveries;
        if (d.t_us < it->second) it->second = d.t_us;
      }
    }

    for (const auto& [subscriber, deliver_t] : first_arrival) {
      DeliveryDecomposition out;
      out.packet = packet_id;
      out.subscriber = subscriber;
      out.publisher = p.publisher;
      out.topic = p.topic;
      out.publish_t_us = p.publish_t_us;
      out.deliver_t_us = deliver_t;
      out.total_us = deliver_t - p.publish_t_us;
      out.epoch = epoch_of(p.publish_t_us);
      DelayComponents& comp = out.components;

      if (subscriber == p.publisher) {
        // Self-delivery: handed up in the publish instant; any delay (there
        // should be none) is processing residual.
        out.chain_complete = true;
        comp.residual_us = out.total_us;
      } else {
        std::uint32_t cur_node = subscriber;
        std::int64_t cur_t = deliver_t;
        // Each iteration consumes one copy-hop; +2 slack for safety.
        std::size_t budget = p.copies.size() + 2;
        while (budget-- > 0) {
          // Select the copy whose arrival at cur_node caused the hand-up at
          // cur_t. Exact match: its pending-closing ACK timestamp equals
          // cur_t (out-of-band ACKs make ack time == arrival time).
          // Fallback (ACK lost): the copy into cur_node with the latest
          // transmission strictly before cur_t.
          const CopyEvents* causal = nullptr;
          int causal_tx = -1;
          bool causal_exact = false;
          for (const std::uint64_t copy_id : p.copies) {
            const auto cit = copies_.find(copy_id);
            if (cit == copies_.end()) continue;
            const CopyEvents& c = cit->second;
            if (c.to != cur_node || c.tx_times_us.empty()) continue;
            const bool exact =
                c.ack_tx >= 0 && c.ack_t_us == cur_t &&
                static_cast<std::size_t>(c.ack_tx) < c.tx_times_us.size() &&
                c.tx_times_us[static_cast<std::size_t>(c.ack_tx)] >= 0;
            int tx = -1;
            if (exact) {
              tx = c.ack_tx;
            } else {
              for (std::size_t k = c.tx_times_us.size(); k-- > 0;) {
                const std::int64_t t = c.tx_times_us[k];
                if (t >= 0 && t < cur_t) {
                  tx = static_cast<int>(k);
                  break;
                }
              }
            }
            if (tx < 0) continue;
            const std::int64_t tx_t =
                c.tx_times_us[static_cast<std::size_t>(tx)];
            const bool better =
                causal == nullptr || (exact && !causal_exact) ||
                (exact == causal_exact &&
                 tx_t > causal->tx_times_us[static_cast<std::size_t>(
                            causal_tx)]);
            if (better) {
              causal = &c;
              causal_tx = tx;
              causal_exact = exact;
            }
          }
          if (causal == nullptr) break;  // evidence exhausted

          const std::int64_t tx_t =
              causal->tx_times_us[static_cast<std::size_t>(causal_tx)];
          const std::int64_t first_tx_t =
              causal->tx_times_us.front() >= 0 ? causal->tx_times_us.front()
                                               : tx_t;
          // Wait at hop entry: first transmission -> successful one.
          const std::int64_t hop_wait = tx_t - first_tx_t;
          // Wire: successful transmission -> arrival.
          const std::int64_t flight = cur_t - tx_t;
          const bool reroute_hop = std::any_of(
              p.reroutes.begin(), p.reroutes.end(),
              [&](const RerouteEvent& e) {
                return e.node == causal->from && e.peer == causal->to &&
                       e.t_us == causal->enqueue_t_us;
              });
          if (hop_wait > 0) {
            comp.retransmit_wait_us += hop_wait;
            out.timeouts += causal_tx;
            BrokerDelayStats& b = broker_stats[causal->from];
            b.node = causal->from;
            ++b.wait_segments;
            b.wait_us += hop_wait;
          }
          if (reroute_hop) {
            comp.reroute_detour_us += flight;
            out.rerouted = true;
          } else {
            const auto key = std::make_tuple(causal->link, causal->from,
                                             in_gray(causal->link, tx_t));
            const auto bit = baselines.find(key);
            const std::int64_t prop =
                bit != baselines.end() ? std::min(bit->second, flight)
                                       : flight;
            comp.propagation_us += prop;
            comp.queueing_us += flight - prop;
            if (causal->link != TraceRecord::kNoId) {
              LinkDelayStats& l = link_stats[causal->link];
              l.link = causal->link;
              ++l.hops;
              l.wire_us += flight;
              l.queueing_us += flight - prop;
              if (bit != baselines.end() &&
                  (l.baseline_us < 0 || bit->second < l.baseline_us)) {
                l.baseline_us = bit->second;
              }
            }
          }
          ++out.hops;

          const std::uint32_t up_node = causal->from;
          const std::int64_t enqueue_t =
              causal->enqueue_t_us >= 0 ? causal->enqueue_t_us : first_tx_t;

          // Hand-up anchor at the upstream broker: the latest evidenced
          // arrival of any copy into up_node at or before this enqueue. For
          // the publisher the anchor is the publish instant itself.
          std::int64_t anchor;
          if (up_node == p.publisher) {
            anchor = p.publish_t_us;
          } else {
            anchor = -1;
            for (const std::uint64_t copy_id : p.copies) {
              const auto cit = copies_.find(copy_id);
              if (cit == copies_.end()) continue;
              const CopyEvents& c2 = cit->second;
              if (c2.to != up_node) continue;
              std::int64_t evidence = std::numeric_limits<std::int64_t>::max();
              if (c2.ack_tx >= 0) evidence = c2.ack_t_us;
              for (const std::int64_t d : c2.dedup_times_us) {
                evidence = std::min(evidence, d);
              }
              if (evidence <= enqueue_t && evidence > anchor) {
                anchor = evidence;
              }
            }
            if (anchor < 0) anchor = enqueue_t;  // no evidence: zero hold
          }

          // Hold span [anchor, enqueue]: credit the union of sibling-copy
          // failure windows (their timers ran while the packet sat here) to
          // retransmit_wait; the rest is processing/dedup residual.
          if (enqueue_t > anchor) {
            std::vector<std::pair<std::int64_t, std::int64_t>> windows;
            int fired = 0;
            for (const std::uint64_t copy_id : p.copies) {
              const auto cit = copies_.find(copy_id);
              if (cit == copies_.end()) continue;
              const CopyEvents& c3 = cit->second;
              if (c3.from != up_node || c3.budget_exhausted_t_us < 0 ||
                  c3.enqueue_t_us < 0) {
                continue;
              }
              const std::int64_t lo = std::max(c3.enqueue_t_us, anchor);
              const std::int64_t hi =
                  std::min(c3.budget_exhausted_t_us, enqueue_t);
              if (lo >= hi) continue;
              windows.push_back({lo, hi});
              for (std::size_t k = 1; k < c3.tx_times_us.size(); ++k) {
                const std::int64_t t = c3.tx_times_us[k];
                if (t > lo && t <= hi) ++fired;
              }
              if (c3.budget_exhausted_t_us <= enqueue_t) ++fired;
            }
            const std::int64_t wait = IntervalUnionLength(windows);
            comp.retransmit_wait_us += wait;
            comp.residual_us += (enqueue_t - anchor) - wait;
            out.timeouts += fired;
            if (wait > 0) {
              BrokerDelayStats& b = broker_stats[up_node];
              b.node = up_node;
              ++b.wait_segments;
              b.wait_us += wait;
            }
          }

          if (up_node == p.publisher) {
            out.chain_complete = true;
            break;
          }
          if (anchor >= cur_t) break;  // no progress: stop, leave residual
          cur_node = up_node;
          cur_t = anchor;
        }
      }

      // Exact-sum closure: whatever the walk could not attribute — an
      // incomplete chain's head, or nothing at all when the chain closed —
      // lands in residual. Components now sum to total by construction.
      const std::int64_t unattributed = out.total_us - comp.Sum();
      comp.residual_us += unattributed;
      if (!out.chain_complete && out.subscriber != out.publisher) {
        ++result.incomplete_chains;
      }

      result.total_histogram.Record(out.total_us);
      for (int i = 0; i < kDelayComponentCount; ++i) {
        result.component_histograms[static_cast<std::size_t>(i)].Record(
            DelayComponentValue(comp, i));
      }
      EpochDelayStats& epoch = epoch_stats[out.epoch];
      epoch.epoch = out.epoch;
      epoch.start_t_us =
          result.epoch_starts_us[static_cast<std::size_t>(out.epoch)];
      ++epoch.deliveries;
      for (int i = 0; i < kDelayComponentCount; ++i) {
        epoch.component_sums_us[static_cast<std::size_t>(i)] +=
            DelayComponentValue(comp, i);
      }
      result.deliveries.push_back(std::move(out));
    }
  }

  // Deterministic output order regardless of hash-map iteration.
  std::sort(result.deliveries.begin(), result.deliveries.end(),
            [](const DeliveryDecomposition& a,
               const DeliveryDecomposition& b) {
              if (a.deliver_t_us != b.deliver_t_us) {
                return a.deliver_t_us < b.deliver_t_us;
              }
              if (a.packet != b.packet) return a.packet < b.packet;
              return a.subscriber < b.subscriber;
            });
  // Stacked-area continuity: emit every epoch, including empty ones.
  for (std::size_t e = 0; e < result.epoch_starts_us.size(); ++e) {
    EpochDelayStats& epoch = epoch_stats[static_cast<int>(e)];
    epoch.epoch = static_cast<int>(e);
    epoch.start_t_us = result.epoch_starts_us[e];
  }
  for (auto& [index, epoch] : epoch_stats) {
    (void)index;
    result.epochs.push_back(epoch);
  }
  for (auto& [link, stats] : link_stats) {
    (void)link;
    result.links.push_back(stats);
  }
  for (auto& [node, stats] : broker_stats) {
    (void)node;
    result.brokers.push_back(stats);
  }
  return result;
}

}  // namespace dcrd
