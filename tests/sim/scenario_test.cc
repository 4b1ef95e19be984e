#include "sim/scenario.h"

#include <gtest/gtest.h>

namespace dcrd {
namespace {

TEST(ScenarioNamesTest, ParsersInvertTheDocumentedNames) {
  for (const RouterKind kind :
       {RouterKind::kDcrd, RouterKind::kRTree, RouterKind::kDTree,
        RouterKind::kOracle, RouterKind::kMultipath}) {
    EXPECT_EQ(ParseRouter("router", RouterName(kind)), kind);
  }
  EXPECT_EQ(ParseRouters("routers", "ORACLE,R-Tree,DCRD"),
            (std::vector<RouterKind>{RouterKind::kOracle, RouterKind::kRTree,
                                     RouterKind::kDcrd}));
  EXPECT_EQ(ParseTopology("topology", "degree"), TopologyKind::kRandomDegree);
  EXPECT_EQ(ParseTopology("topology", "mesh"), TopologyKind::kFullMesh);
  EXPECT_EQ(ParseOrdering("ordering", "theorem1"), OrderingPolicy::kTheorem1);
  EXPECT_EQ(ParseOrdering("ordering", "delay"), OrderingPolicy::kDelayFirst);
  EXPECT_EQ(ParseOrdering("ordering", "reliability"),
            OrderingPolicy::kReliabilityFirst);
}

// A misspelt name exits 2 with "error: --NAME expects ..." instead of being
// ignored, replaced by a default, or read as another name.
TEST(ScenarioNamesDeathTest, UnknownNamesExitTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* name : {"Dcrd", "Rtree", "", "DCRD "}) {
    EXPECT_EXIT((void)ParseRouter("router", name),
                ::testing::ExitedWithCode(2), "error: --router expects DCRD")
        << name;
  }
  // An unknown entry, an empty entry or an empty list.
  for (const char* names : {"Rtree,Dtree", "DCRD,", ",DCRD", "DCRD,,ORACLE",
                            ""}) {
    EXPECT_EXIT((void)ParseRouters("routers", names),
                ::testing::ExitedWithCode(2), "error: --routers expects DCRD")
        << names;
  }
  for (const char* name : {"Mesh", "full-mesh", ""}) {
    EXPECT_EXIT((void)ParseTopology("topology", name),
                ::testing::ExitedWithCode(2),
                "error: --topology expects degree or mesh")
        << name;
  }
  for (const char* name : {"realiability", "Theorem1", ""}) {
    EXPECT_EXIT((void)ParseOrdering("ordering", name),
                ::testing::ExitedWithCode(2),
                "error: --ordering expects theorem1, delay or reliability")
        << name;
  }
}

}  // namespace
}  // namespace dcrd
