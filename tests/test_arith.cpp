// Arithmetic tests: compiled Math* instruction path vs interpreted
// evaluation, edge cases, meta-arithmetic, and instruction selection.
#include <gtest/gtest.h>

#include "engine/machine.h"

namespace rapwam {
namespace {

struct Env {
  Program prog;
  std::unique_ptr<Machine> m;
  explicit Env(const std::string& src, unsigned max_sols = 1) {
    prog.consult(src);
    MachineConfig cfg;
    cfg.max_solutions = max_sols;
    m = std::make_unique<Machine>(prog, cfg);
  }
  RunResult run(const std::string& goal) { return m->solve(goal); }
};

std::string binding(const RunResult& r, const std::string& var) {
  for (auto& [n, v] : r.solutions.at(0).bindings)
    if (n == var) return v;
  return "<unbound?>";
}

TEST(CompiledArith, BasicOps) {
  Env e("calc(A,B,R) :- R is A * B + A - B.");
  EXPECT_EQ(binding(e.run("calc(7, 3, R)."), "R"), "25");
}

TEST(CompiledArith, AllBinaryOperators) {
  Env e("t.");
  EXPECT_EQ(binding(e.run("X is 17 + 5."), "X"), "22");
  EXPECT_EQ(binding(e.run("X is 17 - 5."), "X"), "12");
  EXPECT_EQ(binding(e.run("X is 17 * 5."), "X"), "85");
  EXPECT_EQ(binding(e.run("X is 17 // 5."), "X"), "3");
  EXPECT_EQ(binding(e.run("X is 17 mod 5."), "X"), "2");
  EXPECT_EQ(binding(e.run("X is 17 rem 5."), "X"), "2");
  EXPECT_EQ(binding(e.run("X is min(3, 9)."), "X"), "3");
  EXPECT_EQ(binding(e.run("X is max(3, 9)."), "X"), "9");
  EXPECT_EQ(binding(e.run("X is 12 /\\ 10."), "X"), "8");
  EXPECT_EQ(binding(e.run("X is 12 \\/ 10."), "X"), "14");
  EXPECT_EQ(binding(e.run("X is 3 << 4."), "X"), "48");
  EXPECT_EQ(binding(e.run("X is 48 >> 4."), "X"), "3");
}

TEST(CompiledArith, UnaryOperators) {
  Env e("t.");
  EXPECT_EQ(binding(e.run("X is -(5)."), "X"), "-5");
  EXPECT_EQ(binding(e.run("X is abs(-7)."), "X"), "7");
  EXPECT_EQ(binding(e.run("X is +(9)."), "X"), "9");
  EXPECT_EQ(binding(e.run("X is -(3+4)."), "X"), "-7");
}

TEST(CompiledArith, NestedExpressions) {
  Env e("t.");
  EXPECT_EQ(binding(e.run("X is ((2+3)*(4-1)) mod 7."), "X"), "1");
  EXPECT_EQ(binding(e.run("X is max(min(5,3), 2*2)."), "X"), "4");
}

TEST(CompiledArith, BoundTargetChecksValue) {
  Env e("t.");
  EXPECT_TRUE(e.run("7 is 3 + 4.").success);
  EXPECT_FALSE(e.run("8 is 3 + 4.").success);
}

TEST(CompiledArith, ChainedAccumulator) {
  // The accumulator idiom must stay entirely in registers (no heap
  // growth proportional to iterations).
  Env e(
      "sum(0, A, A) :- !. "
      "sum(N, A, R) :- A1 is A + N, N1 is N - 1, sum(N1, A1, R).");
  RunResult r = e.run("sum(1000, 0, R).");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "R"), "500500");
  EXPECT_LT(r.stats.high_water[static_cast<size_t>(Area::Heap)], 64u);
}

TEST(CompiledArith, MetaArithThroughVariable) {
  // E is bound to an expression *term*; MathLoad must fall back to
  // interpreted evaluation.
  Env e("ev(E, R) :- R is E + 1.");
  RunResult r = e.run("ev(2*3, R).");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "R"), "7");
}

TEST(CompiledArith, WholeExpressionViaVariable) {
  Env e("t.");
  RunResult r = e.run("E = 1+2, X is E.");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "X"), "3");
}

TEST(CompiledArith, AtomIsNotANumber) {
  Env e("bad(R) :- R is foo + 1.");
  // `foo` is not arithmetic: interpreted fallback path fails the goal.
  EXPECT_FALSE(e.run("bad(R).").success);
}

TEST(CompiledArith, AtomBoundVariableFails) {
  Env e("t.");
  EXPECT_FALSE(e.run("E = foo, X is E + 1.").success);
}

TEST(CompiledArith, UnboundThrows) {
  Env e("t.");
  EXPECT_THROW(e.run("X is Y + 1."), Error);
}

TEST(CompiledArith, DivisionByZeroThrows) {
  Env e("t.");
  EXPECT_THROW(e.run("X is 1 // 0."), Error);
  EXPECT_THROW(e.run("X is 1 mod 0."), Error);
}

TEST(CompiledArith, ComparisonsCompiled) {
  Env e("t.");
  EXPECT_TRUE(e.run("3 * 3 > 2 + 6.").success);
  EXPECT_FALSE(e.run("3 * 3 < 2 + 6.").success);
  EXPECT_TRUE(e.run("2 + 2 =:= 2 * 2.").success);
  EXPECT_TRUE(e.run("5 mod 2 =\\= 0.").success);
}

TEST(CompiledArith, ComparisonWithVariables) {
  Env e("between_check(L, X, H) :- L =< X, X =< H.");
  EXPECT_TRUE(e.run("between_check(1, 5, 10).").success);
  EXPECT_FALSE(e.run("between_check(1, 50, 10).").success);
}

TEST(CompiledArith, NegativeLiterals) {
  Env e("t.");
  EXPECT_EQ(binding(e.run("X is -3 + -4."), "X"), "-7");
  EXPECT_EQ(binding(e.run("X is -7 mod 3."), "X"), "2");   // ISO mod
  EXPECT_EQ(binding(e.run("X is -7 rem 3."), "X"), "-1");
}

TEST(CompiledArith, LargeValues) {
  Env e("t.");
  // 48-bit-scale values survive the 56-bit cell payload.
  EXPECT_EQ(binding(e.run("X is 1000000 * 1000000."), "X"), "1000000000000");
  EXPECT_EQ(binding(e.run("X is -1000000 * 1000000."), "X"), "-1000000000000");
}

TEST(CompiledArith, InstructionSelection) {
  // `R is A + 1` with temp A and first-occurrence temp R must compile
  // to Math instructions, with no heap-building puts in between.
  Program p;
  p.consult("f(A, R) :- R is A + 1, g(R). g(_).");
  auto code = compile_program(p);
  i32 pi = code->find_proc(p.pred_id("f", 2));
  bool saw_math = false, saw_put_structure = false;
  for (i32 i = code->proc(pi).entry; i < code->size(); ++i) {
    Op op = code->at(i).op;
    if (op == Op::MathRI || op == Op::MathRR || op == Op::MathLoad) saw_math = true;
    if (op == Op::PutStructure) saw_put_structure = true;
    if (op == Op::Execute || op == Op::Proceed) break;
  }
  EXPECT_TRUE(saw_math);
  EXPECT_FALSE(saw_put_structure);  // no heap expression tree
}

TEST(CompiledArith, FallbackForUnknownFunctor) {
  // gcd/2 is not an arithmetic functor: stays an interpreted builtin
  // (and fails at run time because it is not evaluable).
  Program p;
  p.consult("f(R) :- R is gcd(4, 6).");
  auto code = compile_program(p);
  i32 pi = code->find_proc(p.pred_id("f", 1));
  bool saw_builtin = false;
  for (i32 i = code->proc(pi).entry; i < code->size(); ++i) {
    if (code->at(i).op == Op::Builtin) saw_builtin = true;
    if (code->at(i).op == Op::Proceed) break;
  }
  EXPECT_TRUE(saw_builtin);
}

/// Runs `goal` expecting a structured Error whose text contains `what`.
void expect_error(Env& e, const std::string& goal, const std::string& what) {
  SCOPED_TRACE(goal);
  try {
    e.run(goal);
    FAIL() << "expected \"" << what << "\"";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find(what), std::string::npos) << err.what();
  }
}

TEST(ArithRange, ShiftCountOutsideZeroTo63IsAnError) {
  // Compiled (MathRI) and runtime (eval_arith) paths: 1 << 70 used to
  // shift an i64 by 70 (UB) and answer 64.
  Env e("t.");
  const std::string msg = "arithmetic: shift count out of range";
  expect_error(e, "X is 1 << 70.", msg);
  expect_error(e, "E = 1 << 70, X is E.", msg);
  expect_error(e, "X is 1 >> -1.", msg);
  expect_error(e, "E = 1 >> 64, X is E.", msg);
  EXPECT_EQ(binding(e.run("X is 1 << 54."), "X"), "18014398509481984");
  EXPECT_EQ(binding(e.run("E = -1 >> 63, X is E."), "X"), "-1");
}

TEST(ArithRange, ResultsOutsideTheCellAreOverflowErrors) {
  // kIntMax + 1 used to wrap silently to kIntMin.
  Env e("t.");
  const std::string msg = "arithmetic: integer overflow";
  expect_error(e, "X is 36028797018963967 + 1.", msg);
  expect_error(e, "E = 36028797018963967 + 1, X is E.", msg);
  expect_error(e, "X is -36028797018963967 - 2.", msg);
  expect_error(e, "X is 1 << 55.", msg);
  expect_error(e, "E = -1 << 56, X is E.", msg);
  EXPECT_EQ(binding(e.run("X is -36028797018963967 - 1."), "X"),
            std::to_string(kIntMin));
  EXPECT_EQ(binding(e.run("X is 36028797018963966 + 1."), "X"),
            std::to_string(kIntMax));
}

TEST(ArithRange, MultiplyNegateAndAbsAtTheBounds) {
  Env e("t.");
  const std::string msg = "arithmetic: integer overflow";
  // `*`: compiled with an immediate, compiled register-register, and
  // runtime; the last overflows i64 itself, not just the cell.
  expect_error(e, "X is 18014398509481984 * 2.", msg);
  expect_error(e, "A = 18014398509481984, B = 2, X is A * B.", msg);
  expect_error(e, "E = 36028797018963967 * 36028797018963967, X is E.", msg);
  EXPECT_EQ(binding(e.run("X is -18014398509481984 * 2."), "X"),
            std::to_string(kIntMin));
  EXPECT_EQ(binding(e.run("E = 36028797018963967 * -1, X is E."), "X"),
            std::to_string(-kIntMax));
  // Unary `-` and abs of kIntMin have no 56-bit answer.
  expect_error(e, "X is -(-36028797018963967 - 1).", msg);
  expect_error(e, "E = -(-36028797018963967 - 1), X is E.", msg);
  expect_error(e, "X is abs(-36028797018963967 - 1).", msg);
  expect_error(e, "E = abs(-36028797018963967 - 1), X is E.", msg);
  EXPECT_EQ(binding(e.run("X is abs(-36028797018963967)."), "X"),
            std::to_string(kIntMax));
  EXPECT_EQ(binding(e.run("E = -(36028797018963967), X is E."), "X"),
            std::to_string(-kIntMax));
}

TEST(ArithRange, QueryLiteralPastTheCellIsRejected) {
  // Used to answer X = -1: the literal fits i64 but not the Int cell.
  Env e("t.");
  expect_error(e, "X = 1152921504606846975.", "integer literal out of range");
}

TEST(InterpretedArith, EvalAgreesWithCompiled) {
  // Force the interpreted path via meta-arithmetic and compare.
  Env e("both(E, C, I) :- C is E, X = E, I is X.");
  RunResult r = e.run("both(((7*3) mod 4) + max(2, -2), C, I).");
  ASSERT_TRUE(r.success);
  EXPECT_EQ(binding(r, "C"), binding(r, "I"));
  EXPECT_EQ(binding(r, "C"), "3");
}

}  // namespace
}  // namespace rapwam
