// Parameterized property tests on the parallel engine: for a family of
// generated search programs, parallel execution on any PE count agrees
// exactly with sequential WAM execution — success, bindings, and
// solution multiplicity — including programs whose parallel goals
// fail at varying depths (failure injection).
#include <gtest/gtest.h>

#include "engine/machine.h"
#include "test_programs.h"

namespace rapwam {
namespace {

RunResult run_cfg(const std::string& src, const std::string& goal, unsigned pes,
                  bool strip) {
  Program prog;
  prog.consult(src);
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.strip_cge = strip;
  cfg.max_solutions = 4;
  Machine m(prog, cfg);
  return m.solve(goal);
}

class ParallelAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelAgreement, PairMatchesSequential) {
  std::string src = make_prop_program(GetParam());
  RunResult seq = run_cfg(src, "pair(A, B).", 1, /*strip=*/true);
  for (unsigned pes : {1u, 2u, 4u, 8u}) {
    RunResult par = run_cfg(src, "pair(A, B).", pes, false);
    ASSERT_EQ(par.success, seq.success) << "seed " << GetParam() << " pes " << pes;
    if (seq.success) {
      EXPECT_EQ(par.solutions[0].bindings[0].second,
                seq.solutions[0].bindings[0].second);
      EXPECT_EQ(par.solutions[0].bindings[1].second,
                seq.solutions[0].bindings[1].second);
    }
  }
}

TEST_P(ParallelAgreement, GatedFailureMatchesSequential) {
  // gate/1 fails for some seeds, killing a (possibly long) sibling.
  std::string src = make_prop_program(GetParam());
  RunResult seq = run_cfg(src, "gated(A).", 1, /*strip=*/true);
  for (unsigned pes : {2u, 4u}) {
    RunResult par = run_cfg(src, "gated(A).", pes, false);
    ASSERT_EQ(par.success, seq.success) << "seed " << GetParam() << " pes " << pes;
    if (seq.success) {
      EXPECT_EQ(par.solutions[0].bindings[0].second,
                seq.solutions[0].bindings[0].second);
    }
  }
}

TEST_P(ParallelAgreement, RunsAreDeterministic) {
  std::string src = make_prop_program(GetParam());
  RunResult a = run_cfg(src, "pair(A, B).", 4, false);
  RunResult b = run_cfg(src, "pair(A, B).", 4, false);
  EXPECT_EQ(a.stats.refs.total, b.stats.refs.total);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelAgreement, ::testing::ValuesIn(kPropSeeds));

TEST(ParallelStress, ManyNestedParcallsUnderFailurePressure) {
  // Fibonacci where odd leaves occasionally fail on their first clause:
  // lots of backtracking across active parcalls.
  for (unsigned pes : {1u, 3u, 8u}) {
    Program prog;
    prog.consult(kFlakyFibProgram);
    MachineConfig cfg;
    cfg.num_pes = pes;
    Machine m(prog, cfg);
    RunResult r = m.solve("main(F).");
    ASSERT_TRUE(r.success) << pes;
    EXPECT_EQ(r.solutions[0].bindings[0].second, "178");  // fib(12)+fib(9)
  }
}

TEST(ParallelStress, DeepNestingAcrossManyPEs) {
  for (unsigned pes : {1u, 7u, 16u}) {
    Program prog;
    prog.consult(kTreeProgram);
    MachineConfig cfg;
    cfg.num_pes = pes;
    Machine m(prog, cfg);
    RunResult r = m.solve("tree(10, S).");
    ASSERT_TRUE(r.success) << pes;
    EXPECT_EQ(r.solutions[0].bindings[0].second, "1024") << pes;
  }
}

TEST(ParallelStress, AlternativesAfterParcallEnumerate) {
  // Backtracking *after* a completed parcall into pre-parcall choices.
  const char* src = R"PL(
    item(1). item(2). item(3).
    duo(X, Y) :- item(X), p(X, A) & p(X, B), Y is A + B.
    p(X, Y) :- Y is X * 10.
  )PL";
  Program prog;
  prog.consult(src);
  MachineConfig cfg;
  cfg.num_pes = 4;
  cfg.max_solutions = 10;
  Machine m(prog, cfg);
  RunResult r = m.solve("duo(X, Y).");
  ASSERT_EQ(r.solutions.size(), 3u);
  EXPECT_EQ(r.solutions[0].bindings[1].second, "20");
  EXPECT_EQ(r.solutions[1].bindings[1].second, "40");
  EXPECT_EQ(r.solutions[2].bindings[1].second, "60");
}

}  // namespace
}  // namespace rapwam
