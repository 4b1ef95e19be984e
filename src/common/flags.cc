#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/logging.h"

namespace dcrd {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      flags.passthrough_.emplace_back(arg);
      continue;
    }
    if (arg.starts_with("--benchmark_")) {
      flags.passthrough_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` form only when the next token is not itself a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags.values_[std::string(body)] = argv[++i];
    } else {
      flags.values_[std::string(body)] = "true";
    }
  }
  return flags;
}

void Flags::RecordQuery(const std::string& name) const {
  DCRD_CHECK(!sealed_)
      << "flag --" << name
      << " queried after Seal(); read the whole configuration before worker "
         "threads start";
  const std::thread::id self = std::this_thread::get_id();
  if (query_thread_ == std::thread::id{}) query_thread_ = self;
  DCRD_CHECK(query_thread_ == self)
      << "Flags queried from multiple threads; read the whole configuration "
         "before starting worker threads (flag --" << name << ")";
  queried_.insert(name);
}

bool Flags::Has(const std::string& name) const {
  RecordQuery(name);
  return values_.contains(name);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  RecordQuery(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t fallback) const {
  RecordQuery(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  RecordQuery(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  RecordQuery(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::UnqueriedFlags() const {
  std::vector<std::string> unqueried;
  for (const auto& [name, value] : values_) {
    if (!queried_.contains(name)) unqueried.push_back(name);
  }
  return unqueried;
}

void Flags::ExitOnUnqueried() const {
  const std::vector<std::string> unqueried = UnqueriedFlags();
  if (unqueried.empty()) {
    // Configuration is complete and clean: seal, so a stray flag read
    // after worker threads exist aborts instead of racing.
    Seal();
    return;
  }
  for (const std::string& name : unqueried) {
    DCRD_LOG(kError) << "unknown flag --" << name;
  }
  std::exit(2);
}

std::vector<std::string> Flags::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

}  // namespace dcrd
