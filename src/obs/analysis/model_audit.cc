#include "obs/analysis/model_audit.h"

#include <algorithm>
#include <cmath>

#include "dcrd/dr.h"

namespace dcrd {

void ModelAuditor::AddModelRow(const ModelRow& row) {
  const std::size_t index = cells_.size();
  CellAccumulator& cell = cells_.emplace_back();
  cell.row = row;
  std::vector<std::size_t>& slot = index_[Key{row.topic, row.sub}];
  // Rows arrive in epoch order from the engine; keep the slot sorted even
  // if a merged file interleaves epochs.
  slot.push_back(index);
  std::size_t i = slot.size();
  while (i > 1 && cells_[slot[i - 2]].row.t_us > cells_[slot[i - 1]].row.t_us) {
    std::swap(slot[i - 2], slot[i - 1]);
    --i;
  }
}

void ModelAuditor::Observe(std::uint32_t topic, std::uint32_t sub,
                           std::int64_t publish_t_us,
                           std::int64_t delay_us) {
  ++observed_;
  const auto it = index_.find(Key{topic, sub});
  if (it == index_.end()) {
    ++unmatched_;
    return;
  }
  // Latest epoch at or before the publish instant: the tables that were
  // active when the packet was sent.
  CellAccumulator* cell = nullptr;
  for (const std::size_t index : it->second) {
    if (cells_[index].row.t_us > publish_t_us) break;
    cell = &cells_[index];
  }
  if (cell == nullptr) {
    ++unmatched_;
    return;
  }
  ++cell->n;
  const double x = static_cast<double>(delay_us);
  const double delta = x - cell->mean;
  cell->mean += delta / static_cast<double>(cell->n);
  cell->m2 += delta * (x - cell->mean);
}

AuditReport ModelAuditor::Finish(const AuditConfig& config) const {
  AuditReport report;
  report.observed = observed_;
  report.unmatched = unmatched_;
  report.matched = observed_ - unmatched_;
  report.cells.reserve(cells_.size());
  for (const CellAccumulator& acc : cells_) {
    AuditCell cell;
    cell.epoch_t_us = acc.row.t_us;
    cell.topic = acc.row.topic;
    cell.pub = acc.row.pub;
    cell.sub = acc.row.sub;
    cell.deadline_us = acc.row.deadline_us;
    cell.expected_d_us = acc.row.d_us;
    cell.expected_r = acc.row.r;
    cell.list_length = acc.row.list.size();
    cell.recombined_d_us = CombineOrdered(acc.row.list).d_us;
    const double recombine_error =
        std::abs(cell.recombined_d_us - cell.expected_d_us);
    if (std::isfinite(recombine_error)) {
      report.max_recombine_error_us =
          std::max(report.max_recombine_error_us, recombine_error);
      if (recombine_error > config.recombine_tolerance_us) {
        ++report.recombine_failures;
      }
    } else {
      ++report.recombine_failures;
    }
    cell.n = acc.n;
    cell.mean_us = acc.mean;
    cell.stddev_us =
        acc.n > 1 ? std::sqrt(acc.m2 / static_cast<double>(acc.n - 1)) : 0.0;
    cell.error_us = cell.mean_us - cell.expected_d_us;
    if (acc.n > 0) {
      ++report.populated_cells;
      const double standard_error =
          cell.stddev_us / std::sqrt(static_cast<double>(acc.n));
      cell.flagged =
          std::abs(cell.error_us) >
          config.abs_slack_us + config.z_threshold * standard_error;
      if (cell.flagged) ++report.flagged_cells;
    }
    report.cells.push_back(cell);
  }
  std::sort(report.cells.begin(), report.cells.end(),
            [](const AuditCell& a, const AuditCell& b) {
              if (a.epoch_t_us != b.epoch_t_us) {
                return a.epoch_t_us < b.epoch_t_us;
              }
              if (a.topic != b.topic) return a.topic < b.topic;
              return a.sub < b.sub;
            });
  return report;
}

}  // namespace dcrd
