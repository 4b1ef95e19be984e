#include "dcrd/model_row.h"

#include <array>
#include <cstdio>
#include <istream>
#include <ostream>

#include "obs/json_util.h"

namespace dcrd {

namespace {

// "%.17g": 17 significant digits round-trip every double, so the auditor
// recombines d from exactly the values routing used.
void WriteDouble(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

// One [neighbor, link, d_via_us, r_via] list entry.
bool ReadViaEntry(JsonCursor& cursor, ViaEntry* entry) {
  NodeId::underlying_type neighbor = 0;
  LinkId::underlying_type link = 0;
  if (!cursor.Expect('[') || !cursor.ReadInt(&neighbor) ||
      !cursor.Expect(',') || !cursor.ReadInt(&link) || !cursor.Expect(',') ||
      !cursor.ReadDouble(&entry->d_via_us) || !cursor.Expect(',') ||
      !cursor.ReadDouble(&entry->r_via) || !cursor.Expect(']')) {
    return false;
  }
  entry->neighbor = NodeId(neighbor);
  entry->link = LinkId(link);
  return true;
}

}  // namespace

void WriteModelRow(std::ostream& os, const ModelRow& row) {
  os << "{\"t\":" << row.t_us << ",\"topic\":" << row.topic
     << ",\"pub\":" << row.pub << ",\"sub\":" << row.sub
     << ",\"deadline_us\":" << row.deadline_us << ",\"d_us\":";
  WriteDouble(os, row.d_us);
  os << ",\"r\":";
  WriteDouble(os, row.r);
  os << ",\"list\":[";
  for (std::size_t i = 0; i < row.list.size(); ++i) {
    const ViaEntry& entry = row.list[i];
    if (i != 0) os << ",";
    os << "[" << entry.neighbor.underlying() << "," << entry.link.underlying()
       << ",";
    WriteDouble(os, entry.d_via_us);
    os << ",";
    WriteDouble(os, entry.r_via);
    os << "]";
  }
  os << "]}\n";
}

bool ParseModelRow(std::string_view line, ModelRow* out, std::string* error) {
  static constexpr std::array<std::string_view, 8> kKeys = {
      "t", "topic", "pub", "sub", "deadline_us", "d_us", "r", "list"};
  JsonCursor cursor(line);
  const bool parsed =
      cursor.ReadRecord(kKeys, [&](std::size_t key) {
        switch (key) {
          case 0: return cursor.ReadI64(&out->t_us);
          case 1: return cursor.ReadInt(&out->topic);
          case 2: return cursor.ReadInt(&out->pub);
          case 3: return cursor.ReadInt(&out->sub);
          case 4: return cursor.ReadI64(&out->deadline_us);
          case 5: return cursor.ReadDouble(&out->d_us);
          case 6: return cursor.ReadDouble(&out->r);
          default:
            out->list.clear();  // keeps capacity across a stream's rows
            return cursor.ReadArray([&] {
              return ReadViaEntry(cursor, &out->list.emplace_back());
            });
        }
      }) &&
      cursor.ExpectEnd();
  if (!parsed && error != nullptr) *error = cursor.error;
  return parsed;
}

bool ForEachModelRow(std::istream& in,
                     const std::function<void(const ModelRow&)>& fn,
                     std::size_t* bad_line, std::string* bad_text) {
  ModelRow row;
  return ForEachJsonLine(
      in,
      [&](std::string_view line, std::string* error) {
        if (!ParseModelRow(line, &row, error)) return false;
        fn(row);
        return true;
      },
      bad_line, bad_text);
}

}  // namespace dcrd
