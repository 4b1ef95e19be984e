#include "obs/trace_export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "obs/timeseries.h"

namespace dcrd {

namespace {

// Signed views of the sentinel-carrying fields: -1 on the wire instead of
// 2^64-1 / 2^32-1 keeps the JSONL readable and round-trippable.
long long PacketField(const TraceRecord& r) {
  return r.packet == TraceRecord::kNoPacket
             ? -1LL
             : static_cast<long long>(r.packet);
}
long long IdField(std::uint32_t id) {
  return id == TraceRecord::kNoId ? -1LL : static_cast<long long>(id);
}

// Extracts the raw token after `key` (up to ',' or '}') from a JSONL line.
bool FindRaw(std::string_view line, std::string_view key,
             std::string_view* out) {
  const auto pos = line.find(key);
  if (pos == std::string_view::npos) return false;
  const std::size_t begin = pos + key.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(begin, end - begin);
  return true;
}

bool ParseInt(std::string_view token, long long* out) {
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return result.ec == std::errc() &&
         result.ptr == token.data() + token.size();
}

bool FindInt(std::string_view line, std::string_view key, long long* out) {
  std::string_view token;
  return FindRaw(line, key, &token) && ParseInt(token, out);
}

const char* ClassName(std::uint16_t cls) {
  switch (cls) {
    case 0: return "data";
    case 1: return "ack";
    case 2: return "control";
  }
  return "?";
}

}  // namespace

int FormatTraceJsonl(const TraceRecord& r, char* buf, std::size_t cap) {
  DCRD_CHECK(cap >= kMaxTraceLineBytes);
  const int n = std::snprintf(
      buf, cap,
      "{\"t\":%" PRId64 ",\"k\":\"%.*s\",\"pkt\":%lld,\"copy\":%llu,"
      "\"node\":%lld,\"peer\":%lld,\"link\":%lld,\"aux\":%u,\"x\":%u}\n",
      r.t_us, static_cast<int>(TraceEventName(r.kind).size()),
      TraceEventName(r.kind).data(), PacketField(r),
      static_cast<unsigned long long>(r.copy), IdField(r.node),
      IdField(r.peer), IdField(r.link), static_cast<unsigned>(r.aux8),
      static_cast<unsigned>(r.aux16));
  DCRD_CHECK(n > 0 && static_cast<std::size_t>(n) < cap);
  return n;
}

bool ParseTraceJsonl(std::string_view line, TraceRecord* out) {
  std::string_view kind_token;
  if (!FindRaw(line, "\"k\":\"", &kind_token)) return false;
  const auto quote = kind_token.find('"');
  if (quote == std::string_view::npos) return false;
  TraceEventKind kind;
  if (!TraceEventFromName(kind_token.substr(0, quote), &kind)) return false;

  long long t = 0, pkt = 0, copy = 0, node = 0, peer = 0, link = 0, aux = 0,
            x = 0;
  if (!FindInt(line, "\"t\":", &t) || !FindInt(line, "\"pkt\":", &pkt) ||
      !FindInt(line, "\"copy\":", &copy) ||
      !FindInt(line, "\"node\":", &node) ||
      !FindInt(line, "\"peer\":", &peer) ||
      !FindInt(line, "\"link\":", &link) ||
      !FindInt(line, "\"aux\":", &aux) || !FindInt(line, "\"x\":", &x)) {
    return false;
  }
  out->t_us = t;
  out->kind = kind;
  out->packet = pkt < 0 ? TraceRecord::kNoPacket
                        : static_cast<std::uint64_t>(pkt);
  out->copy = static_cast<std::uint64_t>(copy);
  out->node =
      node < 0 ? TraceRecord::kNoId : static_cast<std::uint32_t>(node);
  out->peer =
      peer < 0 ? TraceRecord::kNoId : static_cast<std::uint32_t>(peer);
  out->link =
      link < 0 ? TraceRecord::kNoId : static_cast<std::uint32_t>(link);
  out->aux8 = static_cast<std::uint8_t>(aux);
  out->aux16 = static_cast<std::uint16_t>(x);
  return true;
}

bool ForEachTraceJsonl(std::istream& in,
                       const std::function<void(const TraceRecord&)>& fn,
                       std::size_t* bad_line, std::string* bad_text) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    TraceRecord record;
    if (!ParseTraceJsonl(line, &record)) {
      if (bad_line != nullptr) *bad_line = line_no;
      if (bad_text != nullptr) *bad_text = line.substr(0, 120);
      return false;
    }
    fn(record);
  }
  return true;
}

std::vector<TraceRecord> ReadTraceJsonl(std::istream& in,
                                        std::size_t* dropped_lines) {
  std::vector<TraceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    TraceRecord record;
    if (ParseTraceJsonl(line, &record)) {
      records.push_back(record);
    } else if (dropped_lines != nullptr) {
      ++*dropped_lines;
    }
  }
  return records;
}

int FormatTraceHuman(const TraceRecord& r, char* buf, std::size_t cap) {
  DCRD_CHECK(cap >= kMaxTraceLineBytes);
  // Packet tag: "m<id>" or "m-" when the event carries no packet identity.
  char pkt[24];
  if (r.packet == TraceRecord::kNoPacket) {
    std::snprintf(pkt, sizeof(pkt), "m-");
  } else {
    std::snprintf(pkt, sizeof(pkt), "m%llu",
                  static_cast<unsigned long long>(r.packet));
  }
  const unsigned long long copy = static_cast<unsigned long long>(r.copy);
  int n = 0;
  switch (r.kind) {
    case TraceEventKind::kPublish:
      n = std::snprintf(buf, cap, "@%" PRId64 "us publish %s at n%lld",
                        r.t_us, pkt, IdField(r.node));
      break;
    case TraceEventKind::kEnqueue:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us enqueue %s copy=%llu n%lld->n%lld "
                        "l%lld budget=%u",
                        r.t_us, pkt, copy, IdField(r.node), IdField(r.peer),
                        IdField(r.link), static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kHopSend:
    case TraceEventKind::kRetransmit:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us %s %s copy=%llu tx=%u n%lld->n%lld "
                        "l%lld",
                        r.t_us,
                        r.kind == TraceEventKind::kHopSend ? "hop-send"
                                                           : "retransmit",
                        pkt, copy, static_cast<unsigned>(r.aux16),
                        IdField(r.node), IdField(r.peer), IdField(r.link));
      break;
    case TraceEventKind::kAck:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us ack %s copy=%llu tx=%u n%lld<-n%lld "
                        "l%lld%s",
                        r.t_us, pkt, copy, static_cast<unsigned>(r.aux16),
                        IdField(r.node), IdField(r.peer), IdField(r.link),
                        r.aux8 != 0 ? " (late, budget already expired)" : "");
      break;
    case TraceEventKind::kBudgetExhausted:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us budget-exhausted %s copy=%llu after "
                        "%u tx n%lld->n%lld l%lld",
                        r.t_us, pkt, copy, static_cast<unsigned>(r.aux16),
                        IdField(r.node), IdField(r.peer), IdField(r.link));
      break;
    case TraceEventKind::kReroute:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us reroute %s n%lld -> upstream n%lld "
                        "l%lld (group=%u)",
                        r.t_us, pkt, IdField(r.node), IdField(r.peer),
                        IdField(r.link), static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kDeliver:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us deliver %s at n%lld (publisher "
                        "n%lld)",
                        r.t_us, pkt, IdField(r.node), IdField(r.peer));
      break;
    case TraceEventKind::kDrop: {
      const auto reason = static_cast<TraceDropReason>(r.aux8);
      if (reason == TraceDropReason::kUndeliverable) {
        n = std::snprintf(buf, cap,
                          "@%" PRId64 "us drop[undeliverable] %s n%lld "
                          "(subscriber n%lld)",
                          r.t_us, pkt, IdField(r.node), IdField(r.peer));
      } else {
        n = std::snprintf(
            buf, cap,
            "@%" PRId64 "us drop[%.*s] %s copy=%llu n%lld->n%lld l%lld "
            "cls=%s",
            r.t_us, static_cast<int>(TraceDropReasonName(reason).size()),
            TraceDropReasonName(reason).data(), pkt, copy, IdField(r.node),
            IdField(r.peer), IdField(r.link), ClassName(r.aux16));
      }
      break;
    }
    case TraceEventKind::kDedupSuppress:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us dedup-suppress %s copy=%llu at "
                        "n%lld (from n%lld)",
                        r.t_us, pkt, copy, IdField(r.node), IdField(r.peer));
      break;
    case TraceEventKind::kLinkDown:
    case TraceEventKind::kLinkUp:
    case TraceEventKind::kGrayStart:
    case TraceEventKind::kGrayEnd:
      n = std::snprintf(buf, cap, "@%" PRId64 "us %.*s l%lld n%lld-n%lld",
                        r.t_us,
                        static_cast<int>(TraceEventName(r.kind).size()),
                        TraceEventName(r.kind).data(), IdField(r.link),
                        IdField(r.node), IdField(r.peer));
      break;
    case TraceEventKind::kRebuild:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us rebuild (sending lists recomputed)",
                        r.t_us);
      break;
    case TraceEventKind::kTimerArmed:
      // `peer` carries the armed timeout in microseconds (see
      // trace_record.h), not a broker id.
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us timer-armed %s copy=%llu tx=%u "
                        "n%lld l%lld timeout=%lldus%s",
                        r.t_us, pkt, copy, static_cast<unsigned>(r.aux16),
                        IdField(r.node), IdField(r.link), IdField(r.peer),
                        r.aux8 != 0 ? " (adaptive)" : "");
      break;
    case TraceEventKind::kBrokerDown:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us broker-down n%lld (%u pending "
                        "copies killed, volatile state lost)",
                        r.t_us, IdField(r.node),
                        static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kBrokerUp:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us broker-up n%lld (restarted empty)",
                        r.t_us, IdField(r.node));
      break;
    case TraceEventKind::kPeerDead:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us peer-dead n%lld->n%lld l%lld (%u "
                        "pending failed fast)",
                        r.t_us, IdField(r.node), IdField(r.peer),
                        IdField(r.link), static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kPeerAlive:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us peer-alive n%lld->n%lld l%lld "
                        "(after %u probes)",
                        r.t_us, IdField(r.node), IdField(r.peer),
                        IdField(r.link), static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kResyncStart:
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us resync-start n%lld (soliciting %u "
                        "neighbours)",
                        r.t_us, IdField(r.node),
                        static_cast<unsigned>(r.aux16));
      break;
    case TraceEventKind::kResyncDone:
      // `copy` carries the resync duration in microseconds (see
      // trace_record.h), not a copy id.
      n = std::snprintf(buf, cap,
                        "@%" PRId64 "us resync-done n%lld took=%lluus",
                        r.t_us, IdField(r.node), copy);
      break;
  }
  DCRD_CHECK(n > 0 && static_cast<std::size_t>(n) < cap);
  return n;
}

void WriteChromeTrace(std::ostream& os,
                      const std::vector<TraceRecord>& records,
                      const TimeSeriesStore* series) {
  // Time-sorted view; stable so same-instant events keep recording order.
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].t_us < records[b].t_us;
                   });

  std::set<std::uint32_t> brokers;
  for (const TraceRecord& r : records) {
    if (r.node != TraceRecord::kNoId) brokers.insert(r.node);
    // kTimerArmed repurposes `peer` for the timeout value — it must not
    // spawn a phantom broker track.
    if (r.kind != TraceEventKind::kTimerArmed &&
        r.peer != TraceRecord::kNoId) {
      brokers.insert(r.peer);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) os << ",\n";
    first = false;
    os << event;
  };

  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"dcrd-sim\"}}");
  for (const std::uint32_t broker : brokers) {
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(broker) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"broker n" +
         std::to_string(broker) + "\"}}");
  }

  // A copy's wire lifetime: async begin at the first hop-send, async end at
  // the closing ACK or budget exhaustion. Async pairs tie by (cat, id), so
  // overlapping copies on one broker track never violate nesting.
  struct OpenCopy {
    std::uint32_t tid;
    std::string name;
  };
  std::unordered_map<std::uint64_t, OpenCopy> open;
  const auto async_event = [](char ph, std::uint64_t copy,
                              const OpenCopy& info, std::int64_t ts) {
    return std::string("{\"ph\":\"") + ph + "\",\"cat\":\"copy\",\"id\":\"" +
           std::to_string(copy) + "\",\"name\":\"" + info.name +
           "\",\"pid\":0,\"tid\":" + std::to_string(info.tid) +
           ",\"ts\":" + std::to_string(ts) + "}";
  };

  std::int64_t last_ts = 0;
  for (const std::size_t i : order) {
    const TraceRecord& r = records[i];
    last_ts = r.t_us;
    const std::uint32_t tid = r.node != TraceRecord::kNoId ? r.node : 0;
    switch (r.kind) {
      case TraceEventKind::kHopSend: {
        if (r.copy != 0 && !open.contains(r.copy)) {
          OpenCopy info{tid, std::string()};
          char name[48];
          std::snprintf(name, sizeof(name), "m%lld c%llu", PacketField(r),
                        static_cast<unsigned long long>(r.copy));
          info.name = name;
          emit(async_event('b', r.copy, info, r.t_us));
          open.emplace(r.copy, std::move(info));
        }
        break;
      }
      case TraceEventKind::kAck:
      case TraceEventKind::kBudgetExhausted: {
        const auto it = open.find(r.copy);
        if (it != open.end()) {
          emit(async_event('e', r.copy, it->second, r.t_us));
          open.erase(it);
        }
        break;
      }
      default: {
        // Everything else is an instant on its broker's track.
        std::string name(TraceEventName(r.kind));
        if (r.packet != TraceRecord::kNoPacket) {
          name += " m" + std::to_string(r.packet);
        }
        emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"" +
             std::string(TraceEventName(r.kind)) + "\",\"name\":\"" + name +
             "\",\"pid\":0,\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + std::to_string(r.t_us) + "}");
        break;
      }
    }
  }
  // Close copies still in flight when the trace ended so every begin has a
  // matching end (the nesting validation in the tests relies on it).
  for (const auto& [copy, info] : open) {
    emit(async_event('e', copy, info, last_ts));
  }

  // Telemetry counter tracks (pid 2): Perfetto/Chrome "C" events on the
  // sim-time axis. Counter metrics plot their per-window delta (a rate at
  // the sampling cadence), gauges their level, broker health its aggregate
  // over brokers, and the SLO series its ratios — so a counter lane lines
  // up under the packet lifelines it explains.
  if (series != nullptr) {
    emit("{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
         "\"args\":{\"name\":\"dcrd-telemetry\"}}");
    const auto counter = [](const std::string& name, std::int64_t ts,
                            const std::string& value) {
      return "{\"ph\":\"C\",\"pid\":2,\"name\":\"" + name +
             "\",\"ts\":" + std::to_string(ts) + ",\"args\":{\"value\":" +
             value + "}}";
    };
    for (std::size_t s = 0; s < series->samples(); ++s) {
      const std::int64_t ts = series->t_us[s];
      for (std::size_t c = 0; c < series->counter_names.size(); ++c) {
        emit(counter(series->counter_names[c] + "/win", ts,
                     std::to_string(series->counter_deltas[c][s])));
      }
      for (std::size_t g = 0; g < series->gauge_names.size(); ++g) {
        emit(counter(series->gauge_names[g], ts,
                     std::to_string(series->gauge_values[g][s])));
      }
      if (series->node_count > 0) {
        std::uint64_t pending = 0, dedup = 0, rto_max = 0;
        const std::size_t base = s * series->node_count;
        for (std::size_t b = 0; b < series->node_count; ++b) {
          pending += series->broker_pending[base + b];
          dedup += series->broker_dedup[base + b];
          rto_max = std::max(rto_max, series->broker_rto_us[base + b]);
        }
        emit(counter("broker.pending_copies", ts, std::to_string(pending)));
        emit(counter("broker.dedup_entries", ts, std::to_string(dedup)));
        emit(counter("broker.rto_us.max", ts, std::to_string(rto_max)));
      }
    }
    for (const SloWindow& w : ComputeSloSeries(*series)) {
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.6f", w.delivery_ratio);
      emit(counter("slo.delivery_ratio", w.t_us, ratio));
      std::snprintf(ratio, sizeof(ratio), "%.6f", w.violation_rate);
      emit(counter("slo.violation_rate", w.t_us, ratio));
      emit(counter("slo.delay_p99_us", w.t_us,
                   std::to_string(w.delay_p99_us)));
    }
  }
  os << "\n]}\n";
}

std::size_t PrintPacketTimeline(std::ostream& os,
                                const std::vector<TraceRecord>& records,
                                std::uint64_t packet_id) {
  std::vector<std::size_t> matching;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].packet == packet_id) matching.push_back(i);
  }
  std::stable_sort(matching.begin(), matching.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].t_us < records[b].t_us;
                   });
  os << "packet m" << packet_id << " — " << matching.size() << " event"
     << (matching.size() == 1 ? "" : "s") << "\n";
  char line[kMaxTraceLineBytes];
  for (const std::size_t i : matching) {
    const int n = FormatTraceHuman(records[i], line, sizeof(line));
    os << "  ";
    os.write(line, n);
    os << "\n";
  }
  return matching.size();
}

std::size_t PrintBrokerTimeline(std::ostream& os,
                                const std::vector<TraceRecord>& records,
                                std::uint32_t broker_id) {
  // A record involves the broker when it is the acting node or the
  // counterpart peer. kTimerArmed repurposes `peer` to carry the timeout in
  // microseconds, so only its `node` field identifies a broker.
  const auto involves = [broker_id](const TraceRecord& r) {
    if (r.node == broker_id) return true;
    return r.kind != TraceEventKind::kTimerArmed && r.peer == broker_id;
  };
  std::vector<std::size_t> matching;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (involves(records[i])) matching.push_back(i);
  }
  std::stable_sort(matching.begin(), matching.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].t_us < records[b].t_us;
                   });
  os << "broker n" << broker_id << " — " << matching.size() << " event"
     << (matching.size() == 1 ? "" : "s") << "\n";
  char line[kMaxTraceLineBytes];
  for (const std::size_t i : matching) {
    const int n = FormatTraceHuman(records[i], line, sizeof(line));
    os << "  ";
    os.write(line, n);
    os << "\n";
  }
  return matching.size();
}

void TraceSummaryAccumulator::Add(const TraceRecord& r) {
  ++counts_[static_cast<std::size_t>(r.kind)];
  if (r.packet != TraceRecord::kNoPacket) {
    packets_.insert(r.packet);
    if (r.kind == TraceEventKind::kPublish) published_.insert(r.packet);
    if (r.kind == TraceEventKind::kDeliver) delivered_.insert(r.packet);
  }
  if (r.node != TraceRecord::kNoId) brokers_.insert(r.node);
  if (total_ == 0) {
    t_min_ = t_max_ = r.t_us;
  } else {
    t_min_ = std::min(t_min_, r.t_us);
    t_max_ = std::max(t_max_, r.t_us);
  }
  ++total_;
}

std::size_t TraceSummaryAccumulator::orphan_delivery_packets() const {
  std::size_t orphans = 0;
  for (const std::uint64_t packet : delivered_) {
    if (!published_.contains(packet)) ++orphans;
  }
  return orphans;
}

void TraceSummaryAccumulator::Print(std::ostream& os) const {
  os << total_ << " events";
  if (total_ > 0) {
    os << " spanning @" << t_min_ << "us .. @" << t_max_ << "us";
  }
  os << "; " << packets_.size() << " packets, " << brokers_.size()
     << " brokers\n";
  for (int k = 0; k < kTraceEventKindCount; ++k) {
    if (counts_[static_cast<std::size_t>(k)] == 0) continue;
    os << "  " << TraceEventName(static_cast<TraceEventKind>(k)) << ": "
       << counts_[static_cast<std::size_t>(k)] << "\n";
  }
  if (const std::size_t orphans = orphan_delivery_packets(); orphans > 0) {
    os << "warning: " << orphans << " packet(s) were delivered but have no "
       << "publish record — the trace looks lossy (overwritten ring or "
       << "truncated capture)\n";
  }
}

void PrintTraceSummary(std::ostream& os,
                       const std::vector<TraceRecord>& records) {
  TraceSummaryAccumulator accumulator;
  for (const TraceRecord& record : records) accumulator.Add(record);
  accumulator.Print(os);
}

}  // namespace dcrd
