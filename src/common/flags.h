// Tiny command-line flag parser for the experiment binaries and examples.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Every
// Has/Get* call records the queried name, so after a binary has read its
// whole configuration it calls ExitOnUnqueried() and any leftover flag — a
// typo like --sedonds — aborts the run instead of silently running the
// default configuration. google-benchmark flags (--benchmark_*) are passed
// through untouched.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace dcrd {

class Flags {
 public:
  // Parses argv; consumes recognised-looking `--x[=v]` tokens and leaves the
  // rest (including --benchmark_* flags) in `passthrough()`.
  static Flags Parse(int argc, char** argv);

  [[nodiscard]] bool Has(const std::string& name) const;
  [[nodiscard]] std::string GetString(const std::string& name,
                                      const std::string& fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double GetDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] bool GetBool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& passthrough() const {
    return passthrough_;
  }
  // Flags parsed but never touched by a Has/Get* call so far. A non-empty
  // result after a binary has read its whole configuration means typos.
  [[nodiscard]] std::vector<std::string> UnqueriedFlags() const;
  // Exits with an error listing UnqueriedFlags() when it is non-empty.
  // Call after the last flag read; every experiment binary does. On a
  // clean pass it also Seal()s the flags, so the sweep pool that spins up
  // next can never race a late flag read.
  void ExitOnUnqueried() const;
  // Flags whose names are not in `known` (explicit allow-list variant).
  [[nodiscard]] std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

  // Declares configuration reading complete. Call right before the first
  // worker pool spins up: any Has/Get* afterwards — even from the pinned
  // thread — aborts, so a flag read can never race the workers (the sweep
  // and figure binaries seal after their last read; their --jobs pool then
  // starts against a sealed config).
  void Seal() const { sealed_ = true; }
  [[nodiscard]] bool sealed() const { return sealed_; }

 private:
  // Queried-name tracking mutates under const accessors, so Flags is
  // single-threaded by contract: parse and read the whole configuration
  // before any worker pool spins up. The first query pins the owning
  // thread; a query from any other thread is a programmer error and aborts.
  void RecordQuery(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> passthrough_;
  // Names queried through the const accessors; see header comment.
  mutable std::set<std::string> queried_;
  mutable std::thread::id query_thread_{};  // pinned by the first query
  mutable bool sealed_ = false;             // set by Seal(); queries abort
};

}  // namespace dcrd
