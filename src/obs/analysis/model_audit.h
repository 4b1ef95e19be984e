// Model-vs-observed delay audit (Theorem 1 in vivo).
//
// The engine's --delay_audit sink dumps one JSONL row per reachable
// (topic, subscriber) pair at every monitoring epoch: the publisher's
// expected <d, r> and the Theorem-1 sending list it was computed from,
// exactly as routing used them. Only the solver's tables yield rows: the
// rows are written right after each rebuild, when in distributed mode
// every gossip still holds the publisher at <inf, 0>. The row format —
// ModelRow, its writer and its parser — lives with the router that writes
// it, in dcrd/model_row.h.
//
// The auditor joins those rows against observed deliveries from the trace:
// a delivery belongs to the model row with the same (topic, subscriber)
// whose epoch stamp is the latest one at or before the publish instant —
// the estimates that were *active when the packet was sent*. Per cell it
// reports observed mean/stddev against the expected d, and flags cells
// whose disagreement is statistically inconsistent: the model d is a
// conditional expectation, so with n samples the observed mean should land
// within ~z standard errors plus a small absolute slack (quantization and
// the epoch-boundary races the join cannot resolve).
//
// Soundness conditions (violating any one voids a cell's flag, not the
// math): the trace and model files must come from the same run; link
// estimates must be the ones active at send time (guaranteed by the epoch
// join); and d models delivery *without* best-effort fallback detours —
// fallback-path deliveries inflate the observed mean by design.
//
// Each row's d is also recombined from its own sending list via Eq. 3
// (CombineOrdered); a recombination mismatch means the file is corrupt or
// was produced by a different algebra — it is reported separately from the
// statistical flags.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dcrd/model_row.h"

namespace dcrd {

struct AuditConfig {
  // A cell is flagged when |observed mean - d| exceeds
  // abs_slack_us + z_threshold * stddev / sqrt(n).
  double z_threshold = 4.0;
  double abs_slack_us = 250.0;
  // Recombining a row's list via Eq. 3 must reproduce its d to within this.
  // Not pure float noise: the solver stops its Gauss–Seidel sweeps at
  // tolerance_us (0.5 µs), so the stored d legitimately lags a fresh
  // recombination by up to that slack, and a gossip, should its rows ever
  // be written, damps updates below its threshold (50 µs). The check is an
  // integrity gate — corruption or a different algebra is off by
  // milliseconds, not this.
  double recombine_tolerance_us = 100.0;
};

// One (epoch, topic, subscriber) audit cell.
struct AuditCell {
  std::int64_t epoch_t_us = 0;
  std::uint32_t topic = 0;
  std::uint32_t pub = 0;
  std::uint32_t sub = 0;
  std::int64_t deadline_us = 0;
  double expected_d_us = 0.0;
  double expected_r = 0.0;
  double recombined_d_us = 0.0;
  std::size_t list_length = 0;
  std::uint64_t n = 0;         // observed deliveries joined to this cell
  double mean_us = 0.0;        // observed mean delay
  double stddev_us = 0.0;      // observed sample stddev (0 when n < 2)
  double error_us = 0.0;       // mean - expected
  bool flagged = false;        // statistically inconsistent with the model
};

struct AuditReport {
  std::vector<AuditCell> cells;  // (epoch, topic, sub) ascending
  std::uint64_t observed = 0;    // deliveries offered to the join
  std::uint64_t matched = 0;     // joined to a model cell
  std::uint64_t unmatched = 0;   // no row for (topic, sub) at publish time
  std::uint64_t flagged_cells = 0;
  std::uint64_t populated_cells = 0;  // cells with n > 0
  double max_recombine_error_us = 0.0;
  std::uint64_t recombine_failures = 0;  // rows beyond recombine_tolerance
};

class ModelAuditor {
 public:
  void AddModelRow(const ModelRow& row);
  // One observed delivery: publish instant and end-to-end delay.
  void Observe(std::uint32_t topic, std::uint32_t sub,
               std::int64_t publish_t_us, std::int64_t delay_us);
  [[nodiscard]] AuditReport Finish(const AuditConfig& config = {}) const;

 private:
  struct CellAccumulator {
    ModelRow row;
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;  // Welford
  };
  // (topic, sub) -> epoch-sorted cell indices for the publish-time join.
  struct Key {
    std::uint32_t topic;
    std::uint32_t sub;
    friend bool operator<(const Key& a, const Key& b) {
      return a.topic != b.topic ? a.topic < b.topic : a.sub < b.sub;
    }
  };
  std::vector<CellAccumulator> cells_;
  std::map<Key, std::vector<std::size_t>> index_;
  std::uint64_t observed_ = 0;
  std::uint64_t unmatched_ = 0;
};

}  // namespace dcrd
