// The --delay_audit model-row format: one JSONL row per reachable
// (topic, subscriber) pair per monitoring epoch, carrying the publisher's
// expected <d, r> and the Theorem-1 sending list it came from, exactly as
// routing used them. DcrdRouter::WriteAuditSnapshot writes rows and the
// delay auditor (obs/analysis/model_audit.h) reads them; both go through
// this file, the format's only writer and parser.
//
//   {"t":300000000,"topic":2,"pub":1,"sub":0,"deadline_us":90000,
//    "d_us":30000.5,"r":0.975,"list":[[1,3,30000.5,0.975],...]}
//
// Doubles are written "%.17g", so a row read back carries every bit the
// router used; list entries are [neighbor, link, d_via_us, r_via].
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "dcrd/dr.h"

namespace dcrd {

struct ModelRow {
  std::int64_t t_us = 0;  // epoch stamp: when these tables became active
  std::uint32_t topic = 0;
  std::uint32_t pub = 0;
  std::uint32_t sub = 0;
  std::int64_t deadline_us = 0;
  double d_us = 0.0;
  double r = 0.0;
  std::vector<ViaEntry> list;  // publisher's primary sending list
};

// Writes `row` as one JSONL line, trailing newline included.
void WriteModelRow(std::ostream& os, const ModelRow& row);

// Parses one row through the strict JsonCursor (obs/json_util.h): all
// eight keys are required, integers must fit their fields exactly, every
// list entry is a four-element tuple, and nothing may follow the object.
// Unknown keys are skipped. Returns false with a human-readable reason in
// *error on any malformed input; never throws.
bool ParseModelRow(std::string_view line, ModelRow* out, std::string* error);

// Streams rows from `in`, invoking `fn` per row. Stops at the first
// malformed line and returns false, reporting its 1-based number and
// "<reason>: <first 120 bytes of the line>". Whitespace-only lines are
// skipped (ForEachJsonLine).
bool ForEachModelRow(std::istream& in,
                     const std::function<void(const ModelRow&)>& fn,
                     std::size_t* bad_line = nullptr,
                     std::string* bad_text = nullptr);

}  // namespace dcrd
