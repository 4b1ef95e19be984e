// Trace formatting, parsing and export.
//
// Three representations of a trace:
//  * JSONL — one JSON object per line, the flight recorder's sink format.
//    FormatTraceJsonl writes into a caller-provided buffer (no allocation;
//    the recorder's flush path depends on that), ParseTraceJsonl inverts it.
//  * Chrome trace_event JSON — loadable in Perfetto / chrome://tracing.
//    One track (tid) per broker under a single "dcrd-sim" process. A copy's
//    wire lifetime (first hop-send to ACK or budget exhaustion) becomes an
//    async begin/end pair keyed by the copy id; everything else is an
//    instant event on its broker's track.
//  * Human text — one line per record, used by the postmortem dump and the
//    dcrd_trace packet-timeline view.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_record.h"

namespace dcrd {

// Upper bound on one formatted JSONL/human line, incl. the trailing
// newline/NUL. Every numeric field is bounded (u64 <= 20 digits), so 256 is
// comfortably above the worst case.
inline constexpr std::size_t kMaxTraceLineBytes = 256;

// Writes `record` as one JSONL line (trailing '\n', NUL-terminated) into
// `buf`; returns the line length excluding the NUL. `cap` must be at least
// kMaxTraceLineBytes.
int FormatTraceJsonl(const TraceRecord& record, char* buf, std::size_t cap);

// Writes `record` as one human-readable line (no trailing newline) into
// `buf`; returns the length. `cap` must be at least kMaxTraceLineBytes.
int FormatTraceHuman(const TraceRecord& record, char* buf, std::size_t cap);

// Parses a FormatTraceJsonl line back into `out`. Returns false on a
// malformed or unrecognised line (blank lines are malformed too). Keys the
// format does not define are ignored, so lines from older captures that
// also carry "seq" and "shard" still parse.
bool ParseTraceJsonl(std::string_view line, TraceRecord* out);

// Reads a whole JSONL stream, skipping blank lines; unparseable lines are
// counted into *dropped_lines when given, otherwise ignored silently.
std::vector<TraceRecord> ReadTraceJsonl(std::istream& in,
                                        std::size_t* dropped_lines = nullptr);

// Streaming reader: parses the JSONL stream one line at a time (bounded
// memory — the whole trace is never materialised) and invokes `fn` per
// record. Blank lines are skipped. Stops at the first malformed line,
// returning false with the 1-based line number in *bad_line and the
// offending text (truncated) in *bad_text when given. Returns true when the
// whole stream parsed.
bool ForEachTraceJsonl(std::istream& in,
                       const std::function<void(const TraceRecord&)>& fn,
                       std::size_t* bad_line = nullptr,
                       std::string* bad_text = nullptr);

// Writes the records as a Chrome trace_event JSON document ("traceEvents"
// array). Records need not be sorted; the export sorts by time internally.
// With a non-null `series` (a time-series store from the same run,
// obs/timeseries.h) the document gains a second process (pid 2),
// "dcrd-telemetry", carrying Perfetto counter tracks ("ph":"C") on the
// sim-time axis: per-window counter rates, gauge levels, aggregate broker
// health, and the deadline-SLO series.
struct TimeSeriesStore;
void WriteChromeTrace(std::ostream& os,
                      const std::vector<TraceRecord>& records,
                      const TimeSeriesStore* series = nullptr);

// Prints every event belonging to `packet_id` (publish, per-hop sends and
// ACKs, reroutes, drops, deliveries) in time order — the "what happened to
// this packet" view. Returns the number of events printed.
std::size_t PrintPacketTimeline(std::ostream& os,
                                const std::vector<TraceRecord>& records,
                                std::uint64_t packet_id);

// Prints every event involving broker `broker_id` (as acting node or peer)
// in time order — the broker lifeline: crashes, restarts, resyncs, peer
// verdicts about it, and the traffic it handled. Returns the number of
// events printed.
std::size_t PrintBrokerTimeline(std::ostream& os,
                                const std::vector<TraceRecord>& records,
                                std::uint32_t broker_id);

// Prints per-kind event counts, the time span, and distinct packet/broker
// counts — dcrd_trace's default view.
void PrintTraceSummary(std::ostream& os,
                       const std::vector<TraceRecord>& records);

// Incremental form of PrintTraceSummary for streaming input: feed records
// one at a time, print at the end. Also watches for evidence that the trace
// is incomplete (a delivery whose publish record is missing — the signature
// of a ring-overwritten / truncated capture) so lossy dumps are called out
// instead of silently summarised.
class TraceSummaryAccumulator {
 public:
  void Add(const TraceRecord& record);
  // Packets seen with a kDeliver but no kPublish record.
  [[nodiscard]] std::size_t orphan_delivery_packets() const;
  void Print(std::ostream& os) const;

 private:
  std::array<std::uint64_t, kTraceEventKindCount> counts_{};
  std::set<std::uint64_t> packets_;
  std::set<std::uint64_t> published_;
  std::set<std::uint64_t> delivered_;
  std::set<std::uint32_t> brokers_;
  std::uint64_t total_ = 0;
  std::int64_t t_min_ = 0;
  std::int64_t t_max_ = 0;
};

}  // namespace dcrd
