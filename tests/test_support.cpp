// Unit tests for the support library: interner, stats, table, CLI,
// thread pool.
#include <gtest/gtest.h>

#include "support/cli.h"
#include "support/interner.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace rapwam {
namespace {

TEST(Interner, AssignsDenseIdsAndRoundTrips) {
  Interner in;
  u32 a = in.intern("foo");
  u32 b = in.intern("bar");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("foo"), a);
  EXPECT_EQ(in.name(a), "foo");
  EXPECT_EQ(in.name(b), "bar");
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, ContainsDoesNotCreate) {
  Interner in;
  EXPECT_FALSE(in.contains("x"));
  in.intern("x");
  EXPECT_TRUE(in.contains("x"));
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, NameOutOfRangeThrows) {
  Interner in;
  EXPECT_THROW(in.name(0), Error);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
}

TEST(Table, AlignsColumns) {
  TextTable t("title");
  t.header({"a", "bbbb"});
  t.row({"xxx", "y"});
  std::string s = t.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("xxx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvOutput) {
  TextTable t;
  t.header({"a", "b"});
  t.row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n", "5", "pos1", "--k=v", "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get("k", ""), "v");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, IntegersMustBeWholeDecimals) {
  const char* argv[] = {"prog", "--size",  "abc", "--line", "4x",
                        "--ways", "",      "--l2",  "-8",    "--pes=+4",
                        "--n",    "-12"};
  Cli cli(12, argv);
  for (const char* flag : {"size", "line", "ways", "pes"}) {
    try {
      cli.get_int(flag, 0);
      ADD_FAILURE() << flag << " parsed";
    } catch (const Error& e) {
      // The message names the flag, so the CLI's "error:" line is
      // actionable.
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(cli.get_int("l2", 0), -8);
  EXPECT_EQ(cli.get_int("n", 0), -12);
}

TEST(Cli, UnsignedFlagsRejectNegativesAndOverflow) {
  const char* argv[] = {"prog", "--threads", "-1", "--every", "4294967296",
                        "--max", "4294967295", "--zero", "0"};
  Cli cli(9, argv);
  EXPECT_THROW(cli.get_u32("threads", 4), Error);  // not 2^32-1 threads
  EXPECT_THROW(cli.get_u32("every", 16), Error);
  EXPECT_EQ(cli.get_u32("max", 0), 4294967295u);
  EXPECT_EQ(cli.get_u32("zero", 7), 0u);
  EXPECT_EQ(cli.get_u32("absent", 7), 7u);
}

TEST(Cli, UnknownFlagIsTheFirstOutsideTheKnownSet) {
  const char* argv[] = {"prog", "--scale", "small", "pos", "--csv",
                        "--bogus", "1",     "--oops=2"};
  Cli cli(8, argv);
  EXPECT_EQ(cli.unknown_flag({"scale", "csv"}), "bogus");  // command-line order
  EXPECT_EQ(cli.unknown_flag({"scale", "csv", "bogus"}), "oops");  // --name=value
  EXPECT_EQ(cli.unknown_flag({"oops", "bogus", "csv", "scale"}), "");
  EXPECT_EQ(cli.unknown_flag({}), "scale");
  const char* bare[] = {"prog", "pos"};
  EXPECT_EQ(Cli(2, bare).unknown_flag({}), "");  // positionals are not flags
}

TEST(Cli, MainRejectsUnknownFlagsBeforeRunningAndReportsErrors) {
  bool ran = false;
  auto body = [&](const Cli& cli) {
    ran = true;
    return static_cast<int>(cli.get_u32("pes", 8));
  };
  const char* typo[] = {"prog", "--pse", "4"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(3, typo, {"pes"}, body), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: unknown flag --pse\n");
  EXPECT_FALSE(ran);
  const char* ok[] = {"prog", "--pes", "4"};
  EXPECT_EQ(cli_main(3, ok, {"pes"}, body), 4);
  EXPECT_TRUE(ran);
  const char* bad[] = {"prog", "--pes", "abc"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(3, bad, {"pes"}, body), 1);  // an Error, not an abort
  EXPECT_EQ(testing::internal::GetCapturedStderr().rfind("error: --pes:", 0), 0u);
}

TEST(Cli, BooleanFlagNeverTakesTheNextArgument) {
  const std::vector<Flag> flags = {Flag::boolean("no-allocate"), "size"};
  const char* argv[] = {"prog", "replay", "--no-allocate", "q.trc", "--size", "512"};
  Cli cli(6, argv, flags);
  EXPECT_EQ(cli.usage_error(), "");
  EXPECT_TRUE(cli.has("no-allocate"));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"replay", "q.trc"}));
  EXPECT_EQ(cli.get_u32("size", 0), 512u);

  const char* with_value[] = {"prog", "--no-allocate=1"};
  EXPECT_EQ(Cli(2, with_value, flags).usage_error(), "--no-allocate takes no value");
  const char* last[] = {"prog", "q.trc", "--size"};
  EXPECT_EQ(Cli(3, last, flags).usage_error(), "--size needs a value");
  const char* before_flag[] = {"prog", "--size", "--no-allocate"};
  EXPECT_EQ(Cli(3, before_flag, flags).usage_error(), "--size needs a value");
  const char* unknown[] = {"prog", "--size", "4", "--bogus"};
  EXPECT_EQ(Cli(4, unknown, flags).usage_error(), "unknown flag --bogus");
}

TEST(Cli, ListEntriesParseLikeFlags) {
  // rapwam_trace sweep checks each --sizes entry with the same parser.
  EXPECT_EQ(parse_u32("1024", "--sizes"), 1024u);
  EXPECT_THROW(parse_u32("abc", "--sizes"), Error);
  EXPECT_THROW(parse_u32("-256", "--sizes"), Error);
  EXPECT_THROW(parse_u32("256 ", "--sizes"), Error);
  EXPECT_THROW(parse_int("", "--sizes"), Error);
  EXPECT_EQ(parse_int("-3", "--x"), -3);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, DefaultSizeNonZero) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace rapwam
