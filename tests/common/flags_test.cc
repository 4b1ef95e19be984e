#include "common/flags.h"

#include <thread>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("binary"));
  for (auto& arg : storage) argv.push_back(arg.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const Flags flags = ParseArgs({"--pf=0.06", "--nodes=20"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("pf", 0), 0.06);
  EXPECT_EQ(flags.GetInt("nodes", 0), 20);
}

TEST(FlagsTest, SpaceForm) {
  const Flags flags = ParseArgs({"--seconds", "600"});
  EXPECT_EQ(flags.GetInt("seconds", 0), 600);
}

TEST(FlagsTest, BareBoolean) {
  const Flags flags = ParseArgs({"--paper"});
  EXPECT_TRUE(flags.GetBool("paper", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagsTest, ExplicitFalse) {
  const Flags flags = ParseArgs({"--fallback=false", "--x=0", "--y=no"});
  EXPECT_FALSE(flags.GetBool("fallback", true));
  EXPECT_FALSE(flags.GetBool("x", true));
  EXPECT_FALSE(flags.GetBool("y", true));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const Flags flags = ParseArgs({});
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.5), 0.5);
  EXPECT_EQ(flags.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagsTest, BenchmarkFlagsPassThrough) {
  const Flags flags = ParseArgs({"--benchmark_filter=BM_Run", "--pf=0.1"});
  ASSERT_EQ(flags.passthrough().size(), 1U);
  EXPECT_EQ(flags.passthrough()[0], "--benchmark_filter=BM_Run");
  EXPECT_TRUE(flags.Has("pf"));
}

TEST(FlagsTest, PositionalArgumentsPassThrough) {
  const Flags flags = ParseArgs({"positional", "--a=1"});
  ASSERT_EQ(flags.passthrough().size(), 1U);
  EXPECT_EQ(flags.passthrough()[0], "positional");
}

TEST(FlagsTest, SpaceFormDoesNotEatNextFlag) {
  const Flags flags = ParseArgs({"--verbose", "--pf=0.1"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("pf", 0), 0.1);
}

TEST(FlagsTest, UnknownFlagDetection) {
  const Flags flags = ParseArgs({"--pf=1", "--typo=2"});
  const auto unknown = flags.UnknownFlags({"pf", "nodes"});
  ASSERT_EQ(unknown.size(), 1U);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagsTest, UnqueriedFlagsTracksEveryAccessor) {
  const Flags flags = ParseArgs(
      {"--pf=0.1", "--nodes=20", "--label=x", "--fast", "--typo=7"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("pf", 0), 0.1);
  EXPECT_EQ(flags.GetInt("nodes", 0), 20);
  EXPECT_EQ(flags.GetString("label", ""), "x");
  EXPECT_TRUE(flags.GetBool("fast", false));
  const auto unqueried = flags.UnqueriedFlags();
  ASSERT_EQ(unqueried.size(), 1U);
  EXPECT_EQ(unqueried[0], "typo");
}

TEST(FlagsTest, HasCountsAsQuery) {
  // Conditional reads (`if (flags.Has("x")) ...`) must mark the flag as
  // recognised even when the branch is not taken.
  const Flags flags = ParseArgs({"--seconds=600"});
  EXPECT_TRUE(flags.Has("seconds"));
  EXPECT_TRUE(flags.UnqueriedFlags().empty());
}

TEST(FlagsTest, QueryingWithDefaultCoversAbsentFlag) {
  const Flags flags = ParseArgs({});
  EXPECT_EQ(flags.GetInt("n", 3), 3);
  EXPECT_TRUE(flags.UnqueriedFlags().empty());
}

TEST(FlagsTest, RepeatedQueriesFromOneThreadAreFine) {
  const Flags flags = ParseArgs({"--a=1", "--b=2"});
  EXPECT_EQ(flags.GetInt("a", 0), 1);
  EXPECT_EQ(flags.GetInt("b", 0), 2);
  EXPECT_EQ(flags.GetInt("a", 0), 1);  // re-query on the same thread
  EXPECT_TRUE(flags.UnqueriedFlags().empty());
}

TEST(FlagsTest, QueriesConfinedToASingleWorkerThreadAreFine) {
  // The contract pins Flags to the *first* querying thread, whichever one
  // that is — a worker may own it as long as no second thread joins in.
  const Flags flags = ParseArgs({"--a=1"});
  std::int64_t seen = 0;
  std::thread worker([&] { seen = flags.GetInt("a", 0); });
  worker.join();
  EXPECT_EQ(seen, 1);
}

TEST(FlagsTest, SealAfterFullReadIsQuiet) {
  const Flags flags = ParseArgs({"--a=1"});
  EXPECT_EQ(flags.GetInt("a", 0), 1);
  EXPECT_FALSE(flags.sealed());
  flags.Seal();
  EXPECT_TRUE(flags.sealed());
  EXPECT_TRUE(flags.UnqueriedFlags().empty());  // bookkeeping still readable
}

TEST(FlagsDeathTest, QueryAfterSealAborts) {
  // The worker-pool contract: every flag is read before the first worker
  // thread starts. A late read — even from the pinned thread — is a
  // programmer error, not a data race to get lucky on.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Flags flags = ParseArgs({"--a=1", "--jobs=4"});
  EXPECT_DEATH(
      {
        (void)flags.GetInt("a", 0);
        (void)flags.GetInt("jobs", 1);
        flags.Seal();  // worker threads may start now...
        (void)flags.GetInt("a", 0);  // ...so this must abort
      },
      "queried after Seal");
}

TEST(FlagsDeathTest, CrossThreadQueryAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Flags flags = ParseArgs({"--a=1", "--b=2"});
  EXPECT_DEATH(
      {
        (void)flags.GetInt("a", 0);  // pins the query thread
        std::thread other([&] { (void)flags.GetInt("b", 0); });
        other.join();
      },
      "multiple threads");
}

// A malformed value exits 2 with "error: --NAME expects ..." instead of
// running on a silently misread number or an unknown word taken as true.
TEST(FlagsDeathTest, MalformedValuesExitTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"abc", "60s", "1.5", "1e3", ""}) {
    const Flags flags = ParseArgs({std::string("--reps=") + value});
    EXPECT_EXIT((void)flags.GetInt("reps", 1), ::testing::ExitedWithCode(2),
                "error: --reps expects a whole number")
        << value;
  }
  for (const char* value : {"abc", "0.5x", ""}) {
    const Flags flags = ParseArgs({std::string("--pf=") + value});
    EXPECT_EXIT((void)flags.GetDouble("pf", 0), ::testing::ExitedWithCode(2),
                "error: --pf expects a number")
        << value;
  }
  for (const char* value : {"maybe", "TRUE", "2"}) {
    const Flags flags = ParseArgs({std::string("--trace=") + value});
    EXPECT_EXIT((void)flags.GetBool("trace", false),
                ::testing::ExitedWithCode(2), "error: --trace expects true")
        << value;
  }
}

TEST(FlagsTest, StrictValuesStillAcceptWellFormedInput) {
  const Flags flags =
      ParseArgs({"--n=-42", "--p=1e-3", "--a=yes", "--b=1", "--c=true"});
  EXPECT_EQ(flags.GetInt("n", 0), -42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0), 1e-3);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
}

}  // namespace
}  // namespace dcrd
