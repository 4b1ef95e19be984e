// Figure 7 — CDF of DCRD packets that missed the deadline, Pf = 0.06.
//
// Two curves: a 20-node full mesh and a 20-node degree-8 overlay. The
// x-axis is actual delay divided by the deadline (starts at 1: only
// deadline-missing deliveries are in the population).
//
// Paper shape: ~50% of the missers arrive within 1.25x the deadline; ~78%
// within 1.5x on the full mesh, dropping to ~70% at degree 8; ~80% within
// 1.75x — i.e. even DCRD's late packets are only modestly late.
#include <fstream>
#include <iomanip>
#include <iostream>

#include "common/flags.h"
#include "figure_common.h"
#include "obs/analysis/delay_decomposition.h"
#include "obs/trace_export.h"

namespace {

// With --delay_audit, fig7 additionally decomposes its own per-cell traces
// and emits per-component lateness CDFs as CSV (long format: one row per
// CDF point). Files and stderr only — the stdout table must stay
// byte-identical with and without the knob. Returns false on a malformed
// trace line: a truncated trace would otherwise yield a partial CDF.
bool WriteComponentCdfs(const dcrd::figures::FigureScale& scale,
                        const std::vector<std::string>& stems) {
  if (scale.delay_audit.empty()) return true;
  const std::string out_path = scale.delay_audit + ".fig7_components.csv";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return true;
  }
  out << "case,component,delay_us,fraction\n";
  for (const std::string& stem : stems) {
    dcrd::TraceAnalyzer analyzer;
    for (int rep = 0; rep < scale.repetitions; ++rep) {
      const std::string path = scale.delay_audit + ".trace." + stem +
                               ".DCRD.rep" + std::to_string(rep) + ".jsonl";
      std::ifstream in(path);
      if (!in) {
        std::cerr << "missing trace " << path << " (skipped)\n";
        continue;
      }
      std::size_t bad_line = 0;
      std::string bad_text;
      if (!dcrd::ForEachTraceJsonl(
              in, [&](const dcrd::TraceRecord& r) { analyzer.Add(r); },
              &bad_line, &bad_text)) {
        std::cerr << path << ":" << bad_line
                  << ": malformed trace record: " << bad_text << "\n";
        return false;
      }
    }
    const dcrd::DecompositionResult result = analyzer.Decompose();
    const auto write_cdf = [&](std::string_view component,
                               const dcrd::LogLinearHistogram& h) {
      if (h.count() == 0) return;
      std::uint64_t cumulative = 0;
      for (int b = 0; b < dcrd::LogLinearHistogram::kBucketCount; ++b) {
        if (h.CountAt(b) == 0) continue;
        cumulative += h.CountAt(b);
        const std::uint64_t hi =
            std::min(dcrd::LogLinearHistogram::BucketHi(b), h.max());
        out << stem << "," << component << "," << hi << ","
            << static_cast<double>(cumulative) /
                   static_cast<double>(h.count())
            << "\n";
      }
    };
    for (int i = 0; i < dcrd::kDelayComponentCount; ++i) {
      write_cdf(dcrd::DelayComponentName(i),
                result.component_histograms[static_cast<std::size_t>(i)]);
    }
    write_cdf("total", result.total_histogram);
  }
  std::cerr << "wrote " << out_path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const auto scale = dcrd::figures::ParseScale(flags);
  flags.ExitOnUnqueried();
  dcrd::figures::PrintHeader(
      "Figure 7: lateness CDF of deadline-missing DCRD packets, Pf=0.06",
      scale);

  const auto run_case = [&](const std::string& stem,
                            dcrd::TopologyKind topology, std::size_t degree) {
    return dcrd::figures::RunFigureReps(scale, stem, [&, topology,
                                                      degree](int rep) {
      dcrd::ScenarioConfig config;
      config.router = dcrd::RouterKind::kDcrd;
      config.node_count = 20;
      config.topology = topology;
      config.degree = degree;
      config.failure_probability = 0.06;
      config.loss_rate = 1e-4;
      config.sim_time = scale.sim_time;
      config.seed = scale.seed + static_cast<std::uint64_t>(rep);
      return config;
    });
  };

  const dcrd::RunSummary mesh =
      run_case("fig7_mesh", dcrd::TopologyKind::kFullMesh, /*degree=*/0);
  const dcrd::RunSummary degree8 =
      run_case("fig7_degree8", dcrd::TopologyKind::kRandomDegree, 8);

  std::vector<double> grid;
  for (double x = 1.0; x <= 3.0 + 1e-9; x += 0.125) grid.push_back(x);
  const std::vector<double> cdf_mesh = dcrd::LatenessCdf(mesh, grid);
  const std::vector<double> cdf_degree8 = dcrd::LatenessCdf(degree8, grid);

  std::cout << "\nFig.7 lateness CDF (x = actual delay / deadline)\n"
            << std::left << std::setw(10) << "x" << std::right
            << std::setw(14) << "full-mesh" << std::setw(14) << "degree-8"
            << "\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::cout << std::left << std::setw(10) << grid[i] << std::right
              << std::fixed << std::setprecision(4) << std::setw(14)
              << cdf_mesh[i] << std::setw(14) << cdf_degree8[i] << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(population sizes: full-mesh " << mesh.lateness_ratios.size()
            << ", degree-8 " << degree8.lateness_ratios.size()
            << " late deliveries)\n";
  return WriteComponentCdfs(scale, {"fig7_mesh", "fig7_degree8"}) ? 0 : 1;
}
