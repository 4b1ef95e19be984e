#include "obs/flight_recorder.h"

#include <ostream>

#include "common/logging.h"
#include "obs/trace_export.h"

namespace dcrd {

FlightRecorder::FlightRecorder(const Scheduler& scheduler, Config config)
    : scheduler_(scheduler) {
  DCRD_CHECK(config.ring_capacity > 0);
  ring_.resize(config.ring_capacity);
}

void FlightRecorder::Append(const TraceRecord& record) {
  if (size_ == ring_.size()) {
    if (sink_ != nullptr) {
      Flush();  // empties the ring; no record lost
    } else {
      start_ = (start_ + 1) % ring_.size();
      --size_;
      ++overwritten_;
    }
  }
  ring_[(start_ + size_) % ring_.size()] = record;
  ++size_;
  ++total_;
}

void FlightRecorder::Flush() {
  if (sink_ == nullptr) return;
  // Fixed stack buffer + ostream::write keeps the emit path allocation-free
  // (an ostringstream would regrow on the heap).
  char line[kMaxTraceLineBytes];
  for (std::size_t i = 0; i < size_; ++i) {
    const int n = FormatTraceJsonl(at(i), line, sizeof(line));
    sink_->write(line, n);
  }
  start_ = 0;
  size_ = 0;
}

void FlightRecorder::DumpPostmortem(std::ostream& os, std::size_t last_n,
                                    std::string_view reason) const {
  const std::size_t shown = last_n < size_ ? last_n : size_;
  os << "=== flight recorder postmortem: " << reason << " ===\n"
     << "recorded " << total_ << " events total, ring holds " << size_ << "/"
     << ring_.size();
  if (overwritten_ > 0) os << " (" << overwritten_ << " overwritten)";
  os << "; last " << shown << " shown\n";
  if (overwritten_ > 0) {
    os << "warning: this dump is LOSSY — " << overwritten_
       << " older record(s) were overwritten in the ring; rerun with a trace "
          "sink (trace_out) or a larger ring for full history\n";
  }
  char line[kMaxTraceLineBytes];
  for (std::size_t i = size_ - shown; i < size_; ++i) {
    const int n = FormatTraceHuman(at(i), line, sizeof(line));
    os << "  ";
    os.write(line, n);
    os << "\n";
  }
  os << "=== end postmortem ===\n";
  os.flush();
}

}  // namespace dcrd
