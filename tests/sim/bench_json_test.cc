#include "sim/bench_json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

BenchRecord SampleRecord(const std::string& name) {
  BenchRecord record;
  record.name = name;
  record.git = "v1-2-gabc123";
  record.utc = "2026-08-05T00:00:00Z";
  record.jobs = 4;
  record.cells = 60;
  record.wall_seconds = 12.5;
  record.cells_per_second = 4.8;
  record.cell_seconds = {0.5, 0.25};
  return record;
}

std::string Render(const BenchRecord& record) {
  std::ostringstream os;
  WriteBenchRecordJson(os, record);
  return os.str();
}

class TempFile {
 public:
  TempFile() : path_(testing::TempDir() + "bench_json_test.json") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string contents() const {
    std::ifstream in(path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

 private:
  std::string path_;
};

TEST(BenchJsonTest, RecordCarriesAllFields) {
  const std::string json = Render(SampleRecord("fig5"));
  EXPECT_NE(json.find("\"name\": \"fig5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"git\": \"v1-2-gabc123\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"cells\": 60"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"cells_per_second\": 4.8"), std::string::npos);
  EXPECT_NE(json.find("\"cell_seconds\": [0.5, 0.25]"), std::string::npos);
}

TEST(BenchJsonTest, EscapesQuotesAndBackslashes) {
  BenchRecord record = SampleRecord("a\"b\\c");
  const std::string json = Render(record);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos) << json;
}

TEST(BenchJsonTest, AppendCreatesArrayThenGrowsIt) {
  TempFile file;
  ASSERT_TRUE(AppendBenchRecord(file.path(), SampleRecord("first")));
  std::string contents = file.contents();
  EXPECT_EQ(contents.front(), '[');
  EXPECT_NE(contents.find("\"first\""), std::string::npos);
  EXPECT_EQ(contents.find("\"second\""), std::string::npos);

  ASSERT_TRUE(AppendBenchRecord(file.path(), SampleRecord("second")));
  contents = file.contents();
  EXPECT_NE(contents.find("\"first\""), std::string::npos);
  EXPECT_NE(contents.find("\"second\""), std::string::npos);
  // Still one array: exactly one opening and one closing bracket outside
  // the numeric cell_seconds arrays.
  EXPECT_EQ(contents.front(), '[');
  EXPECT_EQ(contents.back(), '\n');
  const auto records = [&] {
    std::size_t count = 0, pos = 0;
    while ((pos = contents.find("\"name\"", pos)) != std::string::npos) {
      ++count;
      pos += 6;
    }
    return count;
  }();
  EXPECT_EQ(records, 2U);
}

TEST(BenchJsonTest, RefusesNonArrayFile) {
  // Only a file that is exactly one JSON array is spliced into. The object
  // and the committed BENCH_data_plane.json (an object that ends in nested
  // arrays) used to come out unclosed; "[1] x" and the two arrays lost
  // their tail.
  std::ifstream committed(DCRD_SOURCE_DIR "/BENCH_data_plane.json");
  ASSERT_TRUE(committed.is_open());
  std::ostringstream data_plane;
  data_plane << committed.rdbuf();
  ASSERT_EQ(data_plane.str().front(), '{');
  for (const std::string& original :
       {std::string("not json at all"), std::string("{\"a\": [1]}"),
        std::string("[1] x"), std::string("[1]\n[2]\n"), data_plane.str()}) {
    TempFile file;
    {
      std::ofstream out(file.path());
      out << original;
    }
    EXPECT_FALSE(AppendBenchRecord(file.path(), SampleRecord("x")))
        << original.substr(0, 40);
    EXPECT_EQ(file.contents(), original);
  }
}

TEST(BenchJsonTest, MakeBenchRecordDerivesThroughput) {
  SweepRunStats stats;
  stats.jobs = 8;
  stats.cells = 40;
  stats.wall_seconds = 10.0;
  stats.cell_seconds = {1.0, 2.0};
  const BenchRecord record = MakeBenchRecord("sweep", stats);
  EXPECT_EQ(record.name, "sweep");
  EXPECT_EQ(record.jobs, 8);
  EXPECT_EQ(record.cells, 40U);
  EXPECT_DOUBLE_EQ(record.cells_per_second, 4.0);
  EXPECT_FALSE(record.git.empty());
  EXPECT_FALSE(record.utc.empty());
}

}  // namespace
}  // namespace dcrd
