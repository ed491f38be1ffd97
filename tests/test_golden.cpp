// Golden-stats regression suite: replays the corpus configurations of
// harness/golden.h live and compares every counter field-by-field
// against the committed tests/golden/<bench>.json. Any drift — a
// refactor that changes a protocol transition, an accounting change, a
// trace-generation change — fails with a readable per-field diff and
// writes the live corpus to golden_actual/ (uploaded as a CI artifact)
// so the numbers can be inspected or, when the change is intentional,
// regenerated with `rapwam_trace golden --update`.
#include <gtest/gtest.h>

#include <filesystem>

#include "harness/golden.h"
#include "harness/programs.h"

namespace rapwam {
namespace {

void check_bench(const std::string& bench) {
  std::string path = golden_dir() + "/" + bench + ".json";
  std::vector<GoldenEntry> golden;
  try {
    golden = golden_from_json(read_text_file(path));
  } catch (const Error& e) {
    FAIL() << "cannot load golden corpus " << path << ": " << e.what()
           << "\nRegenerate with: rapwam_trace golden --update";
  }
  ASSERT_FALSE(golden.empty()) << path << " holds no entries";

  std::vector<GoldenEntry> live = golden_compute(bench);
  std::vector<std::string> diff = golden_diff(golden, live);
  if (diff.empty()) return;

  std::error_code ec;
  std::filesystem::create_directories("golden_actual", ec);
  std::string actual_path = "golden_actual/" + bench + ".json";
  try {
    write_text_file(actual_path, golden_to_json(bench, live));
  } catch (const Error&) {
    actual_path = "(write failed)";
  }
  std::string msg;
  for (const std::string& d : diff) msg += "  " + d + "\n";
  FAIL() << bench << ": live stats drifted from " << path << " ("
         << diff.size() << " mismatching lines):\n"
         << msg << "If the change is intentional, regenerate with: "
         << "rapwam_trace golden --update\n(live corpus written to "
         << actual_path << ")";
}

TEST(Golden, Deriv) { check_bench("deriv"); }
TEST(Golden, Tak) { check_bench("tak"); }
TEST(Golden, Qsort) { check_bench("qsort"); }
TEST(Golden, Matrix) { check_bench("matrix"); }

TEST(Golden, CorpusCoversEveryBenchmark) {
  // The corpus directory must hold exactly one file per paper
  // benchmark — a new benchmark without golden numbers is unguarded.
  for (const std::string& b : small_bench_names()) {
    EXPECT_TRUE(std::filesystem::exists(golden_dir() + "/" + b + ".json"))
        << "no golden corpus for " << b
        << "; run `rapwam_trace golden --update`";
  }
}

// --- corpus machinery ------------------------------------------------------

TEST(GoldenFormat, JsonRoundTripsExactly) {
  std::vector<GoldenEntry> entries = {
      {"pes1/write-thru", {{"refs", 123}, {"bus_words", 0}}},
      {"pes8/timing", {{"makespan", ~u64(0)}}},  // 64-bit extremes survive
  };
  std::vector<GoldenEntry> back =
      golden_from_json(golden_to_json("demo", entries));
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].key, entries[i].key);
    EXPECT_EQ(back[i].fields, entries[i].fields);
  }
}

TEST(GoldenFormat, DiffReportsPerFieldMismatch) {
  std::vector<GoldenEntry> golden = {{"k", {{"a", 1}, {"b", 2}}}};
  std::vector<GoldenEntry> live = {{"k", {{"a", 1}, {"b", 3}}},
                                   {"extra", {{"a", 0}}}};
  std::vector<std::string> diff = golden_diff(golden, live);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], "k: field b: golden 2, live 3");
  EXPECT_NE(diff[1].find("extra"), std::string::npos);
  EXPECT_TRUE(golden_diff(golden, golden).empty());
}

TEST(GoldenFormat, ParserRejectsMalformedCorpus) {
  EXPECT_THROW(golden_from_json(""), Error);
  EXPECT_THROW(golden_from_json("{"), Error);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": }}}"), Error);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": 1}}} x"), Error);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": "
                                "99999999999999999999999}}}"),
               Error);
  // Just past 2^64: wraps to an in-range value if the overflow check
  // runs after the multiply instead of before.
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": "
                                "50000000000000000000}}}"),
               Error);
}

TEST(GoldenFormat, ParserRejectsNegativeAndFractionalFields) {
  EXPECT_EQ(golden_from_json("{\"entries\": {\"k\": {\"a\": 0}}}")
                .at(0)
                .fields.at(0)
                .second,
            0u);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": -1}}}"), Error);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": 1.5}}}"), Error);
  EXPECT_THROW(golden_from_json("{\"entries\": {\"k\": {\"a\": \"7\"}}}"), Error);
}

}  // namespace
}  // namespace rapwam
