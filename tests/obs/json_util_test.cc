// JsonCursor: integers read exactly into their type and the literals
// match exactly. The record, trailing-text and line-loop rules are tested
// through the formats that use them (trace_export_test, model_row_test,
// trace_analysis_test, timeseries_test).
#include "obs/json_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace dcrd {
namespace {

TEST(JsonCursorTest, ReadU64IsExactAcrossTheWholeRange) {
  // 2^53 + 1 is the first integer a double cannot hold; 2^64 - 1 the last
  // a u64 can.
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{9007199254740993u},
        (std::uint64_t{1} << 60) + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::string text = std::to_string(value);
    JsonCursor cursor(text);
    std::uint64_t read = 0;
    ASSERT_TRUE(cursor.ReadU64(&read)) << value << ": " << cursor.error;
    EXPECT_EQ(read, value);
    EXPECT_TRUE(cursor.ExpectEnd());
  }
}

TEST(JsonCursorTest, ReadU64RejectsSignFractionExponentAndOverflow) {
  for (const char* text :
       {"-5", "2.75", "1e30", "3E2", "18446744073709551616", "+1", "abc",
        ""}) {
    JsonCursor cursor(text);
    std::uint64_t read = 7;
    EXPECT_FALSE(cursor.ReadU64(&read)) << text;
    EXPECT_FALSE(cursor.ok()) << text;
  }
}

TEST(JsonCursorTest, ReadI64ReadsBothEndsAndRejectsBeyondThem) {
  for (const std::int64_t value : {std::numeric_limits<std::int64_t>::min(),
                                   std::int64_t{-1},
                                   std::numeric_limits<std::int64_t>::max()}) {
    const std::string text = std::to_string(value);
    JsonCursor cursor(text);
    std::int64_t read = 0;
    ASSERT_TRUE(cursor.ReadI64(&read)) << value << ": " << cursor.error;
    EXPECT_EQ(read, value);
  }
  for (const char* text :
       {"9223372036854775808", "-9223372036854775809", "-0.5", "4e2"}) {
    JsonCursor cursor(text);
    std::int64_t read = 0;
    EXPECT_FALSE(cursor.ReadI64(&read)) << text;
  }
}

TEST(JsonCursorTest, SkipValueMatchesLiteralsExactly) {
  for (const char* text : {"true", "false", "null", "[true,false,null]",
                           "{\"a\":[1,{\"b\":null}],\"c\":\"x\"}"}) {
    JsonCursor cursor(text);
    EXPECT_TRUE(cursor.SkipValue() && cursor.ExpectEnd())
        << text << ": " << cursor.error;
  }
  for (const char* text : {"tXYZ", "nul", "fals", "[tXYZ]", "trux"}) {
    JsonCursor cursor(text);
    EXPECT_FALSE(cursor.SkipValue() && cursor.ExpectEnd()) << text;
  }
}

}  // namespace
}  // namespace dcrd
