// Cross-product regression matrix: every router on every (topology, Pf, m)
// combination must uphold the structural invariants — no crashes, no
// impossible ratios, lateness bookkeeping consistent, ACKs bounded by data
// traffic, determinism. Parameterised so each combination reports
// individually.
#include <gtest/gtest.h>

#include "sim/engine.h"

namespace dcrd {
namespace {

struct MatrixCase {
  RouterKind router;
  TopologyKind topology;
  std::size_t degree;
  double pf;
  int m;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = RouterName(c.router);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.topology == TopologyKind::kFullMesh
              ? "_mesh"
              : "_deg" + std::to_string(c.degree);
  name += "_pf" + std::to_string(static_cast<int>(c.pf * 100));
  name += "_m" + std::to_string(c.m);
  return name;
}

class RouterMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RouterMatrixTest, InvariantsHold) {
  const MatrixCase& c = GetParam();
  ScenarioConfig config;
  config.router = c.router;
  config.node_count = 12;
  config.topology = c.topology;
  config.degree = c.degree;
  config.failure_probability = c.pf;
  config.max_transmissions = c.m;
  config.loss_rate = 1e-3;
  config.topic_count = 3;
  config.sim_time = SimDuration::Seconds(25);
  config.seed = 11;

  const RunSummary summary = RunScenario(config);
  EXPECT_GT(summary.messages_published, 0U);
  EXPECT_LE(summary.delivered_pairs, summary.expected_pairs);
  EXPECT_LE(summary.qos_pairs, summary.delivered_pairs);
  EXPECT_EQ(summary.lateness_ratios.size(),
            summary.delivered_pairs - summary.qos_pairs);
  EXPECT_EQ(summary.delay_ms_samples.size(), summary.delivered_pairs);
  for (const double ratio : summary.lateness_ratios) EXPECT_GT(ratio, 1.0);
  // Every data transmission triggers at most one ACK.
  EXPECT_LE(summary.ack_transmissions, summary.data_transmissions);
  // With failures off, everything arrives.
  if (c.pf == 0.0) {
    EXPECT_GT(summary.delivery_ratio(), 0.99);
  }

  // Bit-level determinism per combination.
  const RunSummary again = RunScenario(config);
  EXPECT_EQ(again.delivered_pairs, summary.delivered_pairs);
  EXPECT_EQ(again.data_transmissions, summary.data_transmissions);
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (const RouterKind router :
       {RouterKind::kDcrd, RouterKind::kRTree, RouterKind::kDTree,
        RouterKind::kOracle, RouterKind::kMultipath}) {
    for (const double pf : {0.0, 0.08}) {
      for (const int m : {1, 2}) {
        cases.push_back(
            MatrixCase{router, TopologyKind::kRandomDegree, 4, pf, m});
      }
    }
    cases.push_back(MatrixCase{router, TopologyKind::kFullMesh, 0, 0.06, 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllRouters, RouterMatrixTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace dcrd
