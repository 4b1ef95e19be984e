// Per-engine ring-buffer flight recorder.
//
// The recorder keeps the last `ring_capacity` TraceRecords in a
// preallocated ring. Tracing is off when there is no recorder: the engine
// builds one only when tracing is requested, and every instrumented site
// checks its recorder pointer first, so an untraced hot path pays one
// predictable untaken null test (the <2% bench_micro_event_queue budget).
// Recording is an assignment into the preallocated ring — zero heap
// allocations in steady state, a property enforced by the alloc-counter
// regression tests.
//
// Two operating modes, chosen by whether a sink is attached:
//  * Ring only (postmortem mode): when the ring fills, the oldest record is
//    overwritten and counted in overwritten(). DumpPostmortem() renders the
//    last N surviving records — the "what just happened" view the invariant
//    checker and the engine's exception path use.
//  * Sink attached (full-trace mode): when the ring fills it is flushed to
//    the sink as JSONL (see trace_export.h) and emptied, so no record is
//    ever lost. Emission formats into a fixed stack buffer via snprintf and
//    writes with ostream::write — no allocation on the emit path either.
//
// The recorder only ever *reads* simulation state (the scheduler's clock);
// it never touches an RNG stream and never writes to stdout, so enabling it
// cannot perturb results — scripts/determinism_check.sh byte-diffs a traced
// against an untraced run to prove it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "event/scheduler.h"
#include "obs/trace_record.h"

namespace dcrd {

class FlightRecorder {
 public:
  struct Config {
    // Records kept before overwrite/flush. 1<<16 records = 2.5 MiB.
    std::size_t ring_capacity = std::size_t{1} << 16;
  };

  explicit FlightRecorder(const Scheduler& scheduler, Config config);
  explicit FlightRecorder(const Scheduler& scheduler)
      : FlightRecorder(scheduler, Config{}) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Attaches a JSONL sink: the ring flushes into it when full (and on
  // Flush()). Pass nullptr to return to ring-only mode. The stream must
  // outlive the recorder or the next Flush.
  void set_sink(std::ostream* sink) { sink_ = sink; }

  // Records one event at the scheduler's current sim time. The id wrappers
  // unwrap to their raw integers; pass default-constructed ids for fields
  // that do not apply. Hot path: an assignment into the ring, no
  // allocation.
  void Record(TraceEventKind kind, std::uint64_t packet, std::uint64_t copy,
              NodeId node, NodeId peer, LinkId link, std::uint8_t aux8 = 0,
              std::uint16_t aux16 = 0) {
    TraceRecord record;
    record.t_us = scheduler_.now().micros();
    record.packet = packet;
    record.copy = copy;
    record.node = node.underlying();
    record.peer = peer.underlying();
    record.link = link.underlying();
    record.kind = kind;
    record.aux8 = aux8;
    record.aux16 = aux16;
    Append(record);
  }

  // Ring contents, oldest first. `at(0)` is the oldest surviving record.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] const TraceRecord& at(std::size_t i) const {
    return ring_[(start_ + i) % ring_.size()];
  }

  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  // Records lost to ring wrap in ring-only mode (0 with a sink attached).
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

  // Emits the ring to the sink as JSONL and empties it. No-op without a
  // sink. Called automatically when the ring fills in sink mode; call once
  // more at end of run to drain the tail.
  void Flush();

  // Renders the newest `last_n` records (or fewer, if the ring holds fewer)
  // to `os` in human-readable form, framed with `reason`. Used on invariant
  // violations and engine exceptions; not a hot path.
  void DumpPostmortem(std::ostream& os, std::size_t last_n,
                      std::string_view reason) const;

 private:
  void Append(const TraceRecord& record);

  const Scheduler& scheduler_;
  std::ostream* sink_ = nullptr;
  std::vector<TraceRecord> ring_;
  std::size_t start_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t overwritten_ = 0;
};

}  // namespace dcrd
