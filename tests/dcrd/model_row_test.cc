// The --delay_audit model-row format: WriteModelRow and ParseModelRow are
// exact inverses, bit for bit. The parser's rejections and the row loop are
// tested with the auditor (tests/obs/trace_analysis_test.cc).
#include "dcrd/model_row.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

namespace dcrd {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ModelRowTest, WriteThenParseKeepsEveryDoubleBit) {
  // Values no short decimal spells exactly, a magnitude near the bottom of
  // the normal range, and the largest finite double.
  for (const double v : {0.1 + 0.2, 1.0 / 3.0, 1e-300,
                         1.7976931348623157e308}) {
    ModelRow row;
    row.t_us = 600000000;
    row.topic = 4;
    row.pub = 1;
    row.sub = 3;
    row.deadline_us = 90000;
    row.d_us = v;
    row.r = v;
    row.list = {ViaEntry{NodeId(2), LinkId(5), v, v},
                ViaEntry{NodeId(7), LinkId(9), -v, 1.0}};
    std::ostringstream os;
    WriteModelRow(os, row);
    const std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');

    ModelRow parsed;
    std::string error;
    ASSERT_TRUE(ParseModelRow(line, &parsed, &error)) << error << ": " << line;
    EXPECT_EQ(parsed.t_us, row.t_us);
    EXPECT_EQ(parsed.topic, row.topic);
    EXPECT_EQ(parsed.pub, row.pub);
    EXPECT_EQ(parsed.sub, row.sub);
    EXPECT_EQ(parsed.deadline_us, row.deadline_us);
    EXPECT_TRUE(SameBits(parsed.d_us, v)) << line;
    EXPECT_TRUE(SameBits(parsed.r, v)) << line;
    ASSERT_EQ(parsed.list.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(parsed.list[i].neighbor, row.list[i].neighbor);
      EXPECT_EQ(parsed.list[i].link, row.list[i].link);
      EXPECT_TRUE(SameBits(parsed.list[i].d_via_us, row.list[i].d_via_us));
      EXPECT_TRUE(SameBits(parsed.list[i].r_via, row.list[i].r_via));
    }
  }
}

}  // namespace
}  // namespace dcrd
