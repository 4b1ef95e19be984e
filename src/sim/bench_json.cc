#include "sim/bench_json.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.h"
#include "obs/json_util.h"

namespace dcrd {

namespace {

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

}  // namespace

std::string GitDescribe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buffer[128];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

BenchRecord MakeBenchRecord(const std::string& name,
                            const SweepRunStats& stats) {
  BenchRecord record;
  record.name = name;
  record.git = GitDescribe();
  record.utc = UtcNow();
  record.jobs = stats.jobs;
  record.cells = stats.cells;
  record.wall_seconds = stats.wall_seconds;
  record.cells_per_second = stats.cells_per_second();
  record.cell_seconds = stats.cell_seconds;
  return record;
}

void WriteBenchRecordJson(std::ostream& os, const BenchRecord& record) {
  os << "{\"name\": ";
  WriteJsonEscaped(os, record.name);
  os << ", \"git\": ";
  WriteJsonEscaped(os, record.git);
  os << ", \"utc\": ";
  WriteJsonEscaped(os, record.utc);
  os << ", \"jobs\": " << record.jobs << ", \"cells\": " << record.cells
     << ", \"wall_seconds\": " << record.wall_seconds
     << ", \"cells_per_second\": " << record.cells_per_second;
  if (!record.cell_seconds.empty()) {
    os << ", \"cell_seconds\": [";
    for (std::size_t i = 0; i < record.cell_seconds.size(); ++i) {
      if (i != 0) os << ", ";
      os << record.cell_seconds[i];
    }
    os << "]";
  }
  if (!record.rates.empty()) {
    os << ", \"rates\": {";
    for (std::size_t i = 0; i < record.rates.size(); ++i) {
      if (i != 0) os << ", ";
      WriteJsonEscaped(os, record.rates[i].first);
      os << ": " << record.rates[i].second;
    }
    os << "}";
  }
  os << "}";
}

bool AppendBenchRecord(const std::string& path, const BenchRecord& record) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  std::string prefix = "[\n  ";
  if (existing.find_first_not_of(" \t\r\n") != std::string::npos) {
    // Splice only into a file that is one JSON array and nothing else: an
    // object that merely contains a ']' would come out unparseable.
    JsonCursor cursor(existing);
    if (!cursor.ReadArray([&] { return cursor.SkipValue(); }) ||
        !cursor.ExpectEnd()) {
      DCRD_LOG(kWarn) << path << " is not a JSON array (" << cursor.error
                      << "); bench record not written";
      return false;
    }
    // Re-open the array: drop everything from the closing bracket on.
    prefix = existing.substr(0, existing.find_last_of(']'));
    while (prefix.back() == ' ' || prefix.back() == '\n' ||
           prefix.back() == '\r' || prefix.back() == '\t') {
      prefix.pop_back();
    }
    // ",\n" only when the array already holds a record.
    prefix += prefix.back() == '[' ? "\n  " : ",\n  ";
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    DCRD_LOG(kWarn) << "cannot write " << path;
    return false;
  }
  out << prefix;
  WriteBenchRecordJson(out, record);
  out << "\n]\n";
  return out.good();
}

}  // namespace dcrd
