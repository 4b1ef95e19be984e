// dcrd_trace — query and analysis tool for flight-recorder JSONL traces.
//
// Usage:
//   dcrd_trace [MODE...] TRACE.jsonl
//
// Traces come from any figure/example binary run with --trace_out (one file
// per sweep cell). Lines from older captures that also carry "seq" and
// "shard" keys read the same as current ones.
//
//   --summary        per-kind event counts, time span, distinct
//                    packets/brokers (default when no mode is given)
//   --packet ID      full hop timeline of message ID: publish, per-hop
//                    sends/ACKs/retransmits, upstream reroutes, budget
//                    exhaustion, dedup suppressions, delivery or drop
//   --broker ID      lifeline of broker ID: crashes, restarts, resync
//                    start/done, peer-death verdicts about it, and every
//                    traffic event it took part in
//   --chrome PATH    write a Chrome trace_event JSON file (open in Perfetto
//                    or chrome://tracing; one track per broker)
//   --timeseries TS  render a --timeseries JSON capture (counter totals,
//                    gauge ranges, the windowed deadline-SLO table). Works
//                    standalone; with --chrome it adds "dcrd-telemetry"
//                    counter tracks, with --report it adds the
//                    continuous-telemetry panel
//   --decompose      causal delay decomposition: per-component totals,
//                    per-epoch means, per-link/per-broker hotspots
//   --audit MODEL    model-vs-observed audit against a --delay_audit JSONL
//                    file from the same run (implies the decomposition)
//   --report OUT     write a self-contained HTML report (decomposition
//                    charts; audit table when --audit is also given)
//
// Input is streamed line by line — a multi-gigabyte trace never lives in
// memory twice. A malformed line is a hard error (exit 1, with the file,
// line number, and offending text); unknown flags and more than one trace
// file exit 2.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/analysis/delay_decomposition.h"
#include "obs/analysis/html_report.h"
#include "obs/analysis/model_audit.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "obs/trace_record.h"

namespace {

int Usage() {
  std::cerr << "usage: dcrd_trace [--summary | --packet ID | --broker ID | "
               "--chrome OUT | --timeseries SERIES.json | --decompose | "
               "--audit MODEL.jsonl | --report OUT.html] [TRACE.jsonl]\n";
  return 2;
}

// Value-less mode flags (--summary, --decompose). Flags::Parse is greedy —
// `--decompose TRACE.jsonl` stores the first operand as the flag's value —
// so a value that is not a boolean literal is really the first file: hand
// it back to the operand list.
bool BoolMode(const dcrd::Flags& flags, const std::string& name,
              std::vector<std::string>& operands) {
  if (!flags.Has(name)) return false;
  const std::string value = flags.GetString(name, "true");
  if (value == "false" || value == "0" || value == "no") return false;
  if (value == "true" || value == "1" || value == "yes") return true;
  operands.push_back(value);
  return true;
}

// Streams the trace file through `fn` in file order; hard-fails on the
// first malformed line with a message a human can act on.
bool StreamTrace(const std::string& path,
                 const std::function<void(const dcrd::TraceRecord&)>& fn) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dcrd_trace: cannot open " << path << "\n";
    return false;
  }
  std::size_t bad_line = 0;
  std::string bad_text;
  if (!dcrd::ForEachTraceJsonl(in, fn, &bad_line, &bad_text)) {
    std::cerr << "dcrd_trace: " << path << ":" << bad_line
              << ": malformed trace record: " << bad_text << "\n";
    return false;
  }
  return true;
}

void PrintDecomposition(std::ostream& os,
                        const dcrd::DecompositionResult& result) {
  const dcrd::LogLinearHistogram& total = result.total_histogram;
  os << "decomposition: " << total.count() << " deliveries";
  if (total.count() > 0) {
    os << ", mean "
       << static_cast<double>(total.sum()) / static_cast<double>(total.count())
       << "us, p50 " << total.ValueAtQuantile(0.5) << "us, p99 "
       << total.ValueAtQuantile(0.99) << "us";
  }
  os << "\n";
  for (int i = 0; i < dcrd::kDelayComponentCount; ++i) {
    const dcrd::LogLinearHistogram& h =
        result.component_histograms[static_cast<std::size_t>(i)];
    os << "  " << dcrd::DelayComponentName(i) << ": total " << h.sum()
       << "us";
    if (h.count() > 0 && total.sum() > 0) {
      os << " ("
         << 100.0 * static_cast<double>(h.sum()) /
                static_cast<double>(total.sum())
         << "% of delay), p99 " << h.ValueAtQuantile(0.99) << "us";
    }
    os << "\n";
  }
  os << "  epochs:\n";
  for (const dcrd::EpochDelayStats& epoch : result.epochs) {
    os << "    epoch " << epoch.epoch << " @" << epoch.start_t_us << "us: "
       << epoch.deliveries << " deliveries";
    if (epoch.deliveries > 0) {
      for (int i = 0; i < dcrd::kDelayComponentCount; ++i) {
        os << (i == 0 ? ", mean " : " + ")
           << static_cast<double>(
                  epoch.component_sums_us[static_cast<std::size_t>(i)]) /
                  static_cast<double>(epoch.deliveries)
           << (i + 1 == dcrd::kDelayComponentCount ? "us" : "");
      }
    }
    os << "\n";
  }
  for (const dcrd::LinkDelayStats& link : result.links) {
    os << "  link " << link.link << ": " << link.hops << " causal hops, wire "
       << link.wire_us << "us (queueing " << link.queueing_us
       << "us, baseline " << link.baseline_us << "us)\n";
  }
  for (const dcrd::BrokerDelayStats& broker : result.brokers) {
    os << "  broker " << broker.node << ": " << broker.wait_segments
       << " wait segments, " << broker.wait_us << "us timer wait\n";
  }
  os << "  incomplete chains: " << result.incomplete_chains
     << ", duplicate deliveries: " << result.duplicate_deliveries
     << ", timer mismatches: " << result.timer_accounting_mismatches << "\n";
  if (result.skipped_no_publish > 0) {
    std::cerr << "warning: " << result.skipped_no_publish
              << " delivery(ies) had no publish record — the trace looks "
                 "lossy (overwritten ring or truncated capture); their "
                 "delays are excluded\n";
  }
}

void PrintAudit(std::ostream& os, const dcrd::AuditReport& report) {
  os << "audit: " << report.matched << "/" << report.observed
     << " deliveries joined to " << report.cells.size() << " model cells ("
     << report.unmatched << " unmatched), " << report.flagged_cells << "/"
     << report.populated_cells << " populated cells flagged, max Eq.3 "
     << "recombination error " << report.max_recombine_error_us << "us\n";
  for (const dcrd::AuditCell& cell : report.cells) {
    if (cell.n == 0) continue;
    os << "  epoch@" << cell.epoch_t_us << "us topic " << cell.topic
       << " sub " << cell.sub << ": n=" << cell.n << " expected "
       << cell.expected_d_us << "us observed " << cell.mean_us << "us (sd "
       << cell.stddev_us << "us) error " << cell.error_us << "us"
       << (cell.flagged ? " FLAGGED" : "") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  std::vector<std::string> files;
  const bool summary = BoolMode(flags, "summary", files);
  const bool decompose = BoolMode(flags, "decompose", files);
  const bool has_packet = flags.Has("packet");
  const std::int64_t packet = flags.GetInt("packet", -1);
  const bool has_broker = flags.Has("broker");
  const std::int64_t broker = flags.GetInt("broker", -1);
  const std::string chrome_out = flags.GetString("chrome", "");
  const std::string timeseries_in = flags.GetString("timeseries", "");
  const std::string audit_model = flags.GetString("audit", "");
  const std::string report_out = flags.GetString("report", "");
  flags.ExitOnUnqueried();

  files.insert(files.end(), flags.passthrough().begin(),
               flags.passthrough().end());
  if (files.size() > 1) {
    std::cerr << "dcrd_trace: one trace file at a time\n";
    return Usage();
  }
  if (files.empty() && timeseries_in.empty()) return Usage();
  if (has_packet && packet < 0) {
    std::cerr << "--packet needs a non-negative message id\n";
    return 2;
  }
  if (has_broker && broker < 0) {
    std::cerr << "--broker needs a non-negative broker id\n";
    return 2;
  }

  // The time-series capture: rendered as terminal tables on its own, and
  // threaded into the Chrome export (telemetry counter tracks) and the HTML
  // report (continuous-telemetry panel) when those are also requested.
  dcrd::TimeSeriesStore series;
  bool have_series = false;
  if (!timeseries_in.empty()) {
    std::ifstream in(timeseries_in);
    if (!in) {
      std::cerr << "dcrd_trace: cannot open " << timeseries_in << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!dcrd::LoadTimeSeriesJson(text.str(), &series, &error)) {
      std::cerr << "dcrd_trace: " << timeseries_in
                << ": malformed time series: " << error << "\n";
      return 1;
    }
    have_series = true;
    dcrd::PrintTimeSeries(std::cout, series);
  }

  // The timeline and Chrome exports need the records in memory; every other
  // mode streams.
  const bool need_records = has_packet || has_broker || !chrome_out.empty();
  const bool need_analysis =
      decompose || !audit_model.empty() || !report_out.empty();

  std::vector<dcrd::TraceRecord> records;
  dcrd::TraceAnalyzer analyzer;
  dcrd::TraceSummaryAccumulator summary_acc;
  const bool want_summary =
      summary || (!need_records && !need_analysis && !have_series);
  if (!files.empty() &&
      !StreamTrace(files.front(), [&](const dcrd::TraceRecord& record) {
        if (need_records) records.push_back(record);
        if (need_analysis) analyzer.Add(record);
        if (want_summary) summary_acc.Add(record);
      })) {
    return 1;
  }

  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out);
    if (!out) {
      std::cerr << "cannot write " << chrome_out << "\n";
      return 1;
    }
    dcrd::WriteChromeTrace(out, records, have_series ? &series : nullptr);
    std::cerr << "wrote " << chrome_out << " (" << records.size()
              << " records)\n";
  }

  if (has_packet) {
    const std::size_t printed = dcrd::PrintPacketTimeline(
        std::cout, records, static_cast<std::uint64_t>(packet));
    if (printed == 0) {
      std::cerr << "no events for packet " << packet << "\n";
      return 1;
    }
  }

  if (has_broker) {
    const std::size_t printed = dcrd::PrintBrokerTimeline(
        std::cout, records, static_cast<std::uint32_t>(broker));
    if (printed == 0) {
      std::cerr << "no events for broker " << broker << "\n";
      return 1;
    }
  }

  if (need_analysis) {
    const dcrd::DecompositionResult result = analyzer.Decompose();
    if (decompose || report_out.empty()) {
      PrintDecomposition(std::cout, result);
    }

    dcrd::AuditReport audit;
    bool have_audit = false;
    if (!audit_model.empty()) {
      std::ifstream in(audit_model);
      if (!in) {
        std::cerr << "dcrd_trace: cannot open " << audit_model << "\n";
        return 1;
      }
      dcrd::ModelAuditor auditor;
      std::size_t bad_line = 0;
      std::string bad_text;
      if (!dcrd::ForEachModelRow(
              in,
              [&](const dcrd::ModelRow& row) { auditor.AddModelRow(row); },
              &bad_line, &bad_text)) {
        std::cerr << "dcrd_trace: " << audit_model << ":" << bad_line
                  << ": malformed model row: " << bad_text << "\n";
        return 1;
      }
      for (const dcrd::DeliveryDecomposition& d : result.deliveries) {
        auditor.Observe(d.topic, d.subscriber, d.publish_t_us, d.total_us);
      }
      audit = auditor.Finish();
      have_audit = true;
      PrintAudit(std::cout, audit);
    }

    if (!report_out.empty()) {
      std::ofstream out(report_out);
      if (!out) {
        std::cerr << "cannot write " << report_out << "\n";
        return 1;
      }
      const std::string title = files.empty() ? timeseries_in : files.front();
      dcrd::WriteHtmlReport(out, result, have_audit ? &audit : nullptr, title,
                            have_series ? &series : nullptr);
      std::cerr << "wrote " << report_out << " (" << result.deliveries.size()
                << " deliveries decomposed)\n";
    }

    if (have_audit && audit.recombine_failures > 0) {
      std::cerr << "dcrd_trace: " << audit.recombine_failures
                << " model row(s) failed Eq.3 recombination — the model "
                   "file is corrupt or from a different algebra\n";
      return 1;
    }
  }

  if (want_summary) {
    summary_acc.Print(std::cout);
  }
  return 0;
}
