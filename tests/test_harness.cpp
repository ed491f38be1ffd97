#include <functional>
// Harness tests: benchmark programs compute correct results, workload
// generators are deterministic, and the report generators produce
// plausible tables at small scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/reports.h"

namespace rapwam {
namespace {

std::string binding(const RunResult& r, const std::string& var) {
  for (auto& [n, v] : r.solutions.at(0).bindings)
    if (n == var) return v;
  return "<unbound?>";
}

TEST(Generators, Deterministic) {
  EXPECT_EQ(gen_int_list(10, 7), gen_int_list(10, 7));
  EXPECT_NE(gen_int_list(10, 7), gen_int_list(10, 8));
  EXPECT_EQ(gen_deriv_expr(20, 42), gen_deriv_expr(20, 42));
  EXPECT_EQ(gen_matrix_text(3, 3, 5), gen_matrix_text(3, 3, 5));
}

TEST(Generators, ListParses) {
  Program p;
  const Term* t = p.parse_goal("f(" + gen_int_list(50, 3) + ").");
  ASSERT_TRUE(t->is_struct());
  // Count the list length.
  const Term* cur = t->args[0];
  int n = 0;
  while (cur->is_struct()) {
    ++n;
    cur = cur->args[1];
  }
  EXPECT_EQ(n, 50);
}

TEST(Benchmarks, QsortActuallySorts) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  RunResult r = run_parallel(bp, 4);
  ASSERT_TRUE(r.success);
  std::string sorted = binding(r, "R");
  // Parse the integers back out and verify ordering.
  std::vector<long> vals;
  std::string num;
  for (char c : sorted) {
    if (isdigit(c)) num += c;
    else {
      if (!num.empty()) vals.push_back(std::stol(num));
      num.clear();
    }
  }
  ASSERT_EQ(vals.size(), 30u);
  EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
}

TEST(Benchmarks, TakComputesTakeuchi) {
  // tak(8,5,2): reference value from the standard definition.
  std::function<long(long, long, long)> tak = [&](long x, long y, long z) -> long {
    if (x <= y) return z;
    return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
  };
  BenchProgram bp = bench_program("tak", BenchScale::Small);
  RunResult r = run_parallel(bp, 4);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "A"), std::to_string(tak(8, 5, 2)));
}

TEST(Benchmarks, MatrixSpotCheck) {
  // 2x2 known product; B passed transposed.
  Program p;
  p.consult(bench_program("matrix", BenchScale::Small).source);
  MachineConfig cfg;
  cfg.num_pes = 2;
  Machine m(p, cfg);
  // A = [[1,2],[3,4]], B^T = [[5,7],[6,8]] (i.e. B = [[5,6],[7,8]])
  RunResult r = m.solve("mmul([[1,2],[3,4]], [[5,7],[6,8]], R).");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "R"), "[[19,22],[43,50]]");
}

TEST(Benchmarks, DerivKnownDerivative) {
  Program p;
  p.consult(bench_program("deriv", BenchScale::Small).source);
  MachineConfig cfg;
  cfg.num_pes = 2;
  Machine m(p, cfg);
  RunResult r = m.solve("d(x*x, x, D).");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "D"), "+(*(1,x),*(x,1))");
}

TEST(Benchmarks, LargeSuiteRunsSequentially) {
  for (const BenchProgram& bp : large_bench_suite(BenchScale::Small)) {
    RunResult r = run_wam(bp, /*max_solutions=*/100);
    EXPECT_TRUE(r.success) << bp.name;
    EXPECT_GT(r.stats.instructions, 0u) << bp.name;
  }
}

TEST(Benchmarks, WamRunHasNoParallelActivity) {
  RunResult r = run_wam(bench_program("deriv", BenchScale::Small));
  EXPECT_EQ(r.stats.parcalls, 0u);
  EXPECT_EQ(r.stats.goals_pushed, 0u);
}

TEST(Reports, Table1HasTwelveRows) {
  std::string t = table1_report().str();
  EXPECT_NE(t.find("Goal Frames"), std::string::npos);
  EXPECT_NE(t.find("Parcall F./Counts"), std::string::npos);
  // 12 object classes, one line each (plus title + header + rule).
  EXPECT_EQ(std::count(t.begin(), t.end(), '\n'), 15);
}

TEST(Reports, Table2SmallScaleSmoke) {
  ReportOptions opt;
  opt.scale = BenchScale::Small;
  opt.table2_pes = 2;
  std::string t = table2_report(opt).str();
  EXPECT_NE(t.find("deriv"), std::string::npos);
  EXPECT_NE(t.find("Instructions executed"), std::string::npos);
  EXPECT_NE(t.find("Goals actually in //"), std::string::npos);
}

TEST(Reports, Fig2SmallScaleShapes) {
  ReportOptions opt;
  opt.scale = BenchScale::Small;
  opt.fig2_pes = {1, 2, 4};
  TextTable t = fig2_report(opt);
  std::string s = t.csv();
  // Three data rows after the header.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Reports, Fig4SmallScaleOrdering) {
  ReportOptions opt;
  opt.scale = BenchScale::Small;
  opt.fig4_pes = {1, 2};
  opt.fig4_sizes = {256, 1024};
  opt.pool_threads = 4;
  auto tables = fig4_report(opt);
  ASSERT_EQ(tables.size(), 3u);  // broadcast, hybrid, write-through
  EXPECT_NE(tables[0].str().find("broadcast"), std::string::npos);
  EXPECT_NE(tables[2].str().find("write-thru"), std::string::npos);
}

TEST(Reports, MlipsSmallScale) {
  ReportOptions opt;
  opt.scale = BenchScale::Small;
  std::string t = mlips_report(opt).str();
  EXPECT_NE(t.find("instructions / inference"), std::string::npos);
  EXPECT_NE(t.find("MB/s"), std::string::npos);
}

TEST(Reports, Table3SmallScale) {
  ReportOptions opt;
  opt.scale = BenchScale::Small;
  opt.table3_sizes = {256};
  std::string t = table3_report(opt).str();
  EXPECT_NE(t.find("Etr"), std::string::npos);
}

TEST(Runner, TraceMatchesCounters) {
  ChunkingSink sink;
  RunResult r = run_into(bench_program("deriv", BenchScale::Small), 2,
                         /*strip=*/false, &sink);
  std::shared_ptr<const ChunkedTrace> trace = sink.take();
  // Busy-only trace size equals the busy counter.
  EXPECT_EQ(trace->size(), trace->counts().busy);
  EXPECT_EQ(trace->counts().total, r.stats.refs.total);
}

}  // namespace
}  // namespace rapwam
