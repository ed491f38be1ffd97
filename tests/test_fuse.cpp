// Fused-vs-unfused differential suite (DESIGN.md §13): compiling with
// superinstruction fusion on vs off must be unobservable in every
// simulation output — bit-identical packed trace streams (idle refs
// included), solution sets, RunStats and replayed TrafficStats — on
// the four paper benchmarks and on randomized programs. Plus
// structural unit tests that the fusion pass never rewrites across a
// branch target, switch-table entry, or choice-point chain slot, that
// every address operand survives the rewrite, and that every fused
// opcode is emitted for some benchmark program.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/multisim.h"
#include "compiler/compile.h"
#include "compiler/fuse.h"
#include "compiler/verify.h"
#include "harness/runner.h"
#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

struct DiffRun {
  RunResult result;
  std::vector<u64> packed;
};

DiffRun run_with(const std::string& source, const std::string& goal, bool fuse,
                 unsigned pes, unsigned max_solutions, bool strip = false) {
  Program prog;
  prog.consult(source);
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.sizes = bench_area_sizes();
  cfg.fuse = fuse;
  cfg.max_solutions = max_solutions;
  cfg.strip_cge = strip;
  Machine m(prog, cfg);
  ChunkingSink sink(/*busy_only=*/false);  // idle refs must match too
  DiffRun out;
  out.result = m.solve(goal, &sink);
  out.packed = sink.take()->to_packed();
  return out;
}

/// Whole RunStats (operator==; instructions compared first so that a
/// fused-accounting slip prints both counts), solutions, output and
/// the packed trace.
void expect_identical(const DiffRun& fused, const DiffRun& unfused) {
  EXPECT_EQ(fused.result.success, unfused.result.success);
  EXPECT_EQ(fused.result.output, unfused.result.output);
  EXPECT_EQ(fused.result.solutions, unfused.result.solutions);
  EXPECT_EQ(fused.result.stats.instructions, unfused.result.stats.instructions);
  EXPECT_TRUE(fused.result.stats == unfused.result.stats);
  ASSERT_EQ(fused.packed.size(), unfused.packed.size());
  EXPECT_EQ(fused.packed, unfused.packed);
}

TEST(FuseDiff, PaperBenchmarksBitIdenticalAtOnePe) {
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    BenchProgram bp = bench_program(name, BenchScale::Paper);
    DiffRun fused = run_with(bp.source, bp.goal + ".", true, 1, 1);
    DiffRun unfused = run_with(bp.source, bp.goal + ".", false, 1, 1);
    SCOPED_TRACE(name);
    expect_identical(fused, unfused);
    ASSERT_TRUE(fused.result.success);

    // Identical streams must replay to identical cache traffic; pin the
    // TrafficStats object itself, not just the input stream.
    CacheConfig cc;
    cc.size_words = 1024;
    MultiCacheSim sim_f(cc, 1), sim_u(cc, 1);
    sim_f.replay(fused.packed);
    sim_u.replay(unfused.packed);
    EXPECT_EQ(sim_f.stats(), sim_u.stats());
    EXPECT_GT(sim_f.stats().refs, 0u);
  }
}

TEST(FuseDiff, OnePeAndStrippedWamBitIdenticalAtBothScales) {
  // Every fused solve the reports make: the 1-PE RAP-WAM program and
  // the sequential-WAM baseline (CGEs stripped), which Table 2, Figure
  // 2 and run_wam all run fused.
  for (BenchScale scale : {BenchScale::Small, BenchScale::Paper})
    for (const char* name : {"qsort", "deriv", "matrix", "tak"})
      for (bool strip : {false, true}) {
        BenchProgram bp = bench_program(name, scale);
        SCOPED_TRACE(std::string(name) +
                     (scale == BenchScale::Paper ? "/paper" : "/small") +
                     (strip ? "/wam" : "/rapwam"));
        DiffRun fused = run_with(bp.source, bp.goal + ".", true, 1, 1, strip);
        DiffRun unfused = run_with(bp.source, bp.goal + ".", false, 1, 1, strip);
        ASSERT_TRUE(fused.result.success);
        expect_identical(fused, unfused);
      }
}

TEST(FuseDiff, MultiPeMachinesCompileUnfusedEitherWay) {
  // At >1 PE the fuse flag must be inert (fused execution would change
  // the cross-PE interleaving of the trace stream), so runs with the
  // flag on and off are trivially identical — including scheduling
  // counters, which would drift if fusion ever leaked into multi-PE
  // compilation.
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  for (unsigned pes : {4u, 8u}) {
    DiffRun on = run_with(bp.source, bp.goal + ".", true, pes, 1);
    DiffRun off = run_with(bp.source, bp.goal + ".", false, pes, 1);
    SCOPED_TRACE(pes);
    expect_identical(on, off);
  }
}

/// Builds a random program exercising the fused streams: facts with
/// duplicate keys (try/retry/trust + switch tables), an arithmetic
/// guard rule (put/math_load/math_cmp windows, neck_cut via the
/// compiler's guard idiom), and list recursion (get_list/unify
/// windows). Deterministic in `seed`.
std::string random_program(u64 seed, std::string& goal) {
  Lcg rng(seed);
  std::string src;
  int nfacts = 6 + static_cast<int>(rng.next(10));
  for (int i = 0; i < nfacts; ++i) {
    src += "f(" + std::to_string(rng.next(5)) + "," +
           std::to_string(rng.next(20)) + ").\n";
  }
  src += "g(X,Y) :- f(X,Z), Z > " + std::to_string(rng.next(10)) +
         ", f(Z2,Y), Z2 >= X.\n";
  src += "sum([],A,A).\n";
  src += "sum([H|T],A,S) :- A1 is A+H, sum(T,A1,S).\n";
  src += "pairup([],[]).\n";
  src += "pairup([X|T],[X-X2|R]) :- X2 is X*2, pairup(T,R).\n";
  std::string list = "[";
  int len = 4 + static_cast<int>(rng.next(12));
  for (int i = 0; i < len; ++i)
    list += (i ? "," : "") + std::to_string(rng.next(50));
  list += "]";
  goal = "sum(" + list + ",0,S), pairup(" + list + ",P), g(A,B).";
  return src;
}

TEST(FuseDiff, RandomizedProgramsBitIdentical) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    std::string goal;
    std::string src = random_program(seed, goal);
    SCOPED_TRACE(src);
    // All solutions, so the whole try/retry/trust + switch machinery
    // and the backtracking paths of the fused handlers are exercised.
    DiffRun fused = run_with(src, goal, true, 1, 64);
    DiffRun unfused = run_with(src, goal, false, 1, 64);
    expect_identical(fused, unfused);
  }
}

TEST(FuseDiff, FusedHandlerBacktrackPathsBitIdentical) {
  // Heads and guards that fail mid-window: op1 of a fused pair
  // backtracks and the second constituent must not run (no stats
  // drift, no stray refs).
  const char* src =
      "p([H|T],R) :- H > 100, R = T.\n"     // guard fails on every elem
      "p([_|T],R) :- p(T,R).\n"
      "q(f(X,Y),X,Y).\n"                    // get_structure head
      "r([X,Y|T],X,Y,T).\n";                // get_list+unify windows
  std::string goal = "r([1,2,3],A,B,C), q(f(A,B),A2,B2), p([1,2,3,4],P).";
  DiffRun fused = run_with(src, goal, true, 1, 8);
  DiffRun unfused = run_with(src, goal, false, 1, 8);
  expect_identical(fused, unfused);
  EXPECT_FALSE(fused.result.success);  // p/2 never succeeds
}

// ---- structural tests on the pass itself --------------------------------

TEST(FusePass, FusesStraightLinePairs) {
  Interner atoms;
  CodeStore code(atoms);
  i32 a0 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  code.emit({Op::PutValueX, 3, 4, 0, 0});
  i32 procq = code.proc_index(PredId{atoms.intern("q"), 0});
  code.proc(procq).entry = code.emit({Op::Proceed, 0, 0, 0, 0});
  int fused = fuse_code(code);
  EXPECT_EQ(fused, 1);
  EXPECT_EQ(code.at(a0).op, Op::FusePutValueX2);
  EXPECT_EQ(code.at(a0).a, 1);
  EXPECT_EQ(code.at(a0).b, 2);
  EXPECT_EQ(code.at(a0).c, 3);
  EXPECT_EQ(code.at(a0).imm, 4);
  // The proc entry after the collapsed window was remapped.
  EXPECT_EQ(code.at(code.proc(procq).entry).op, Op::Proceed);
  // The rewritten store still passes the bytecode verifier.
  EXPECT_NO_THROW(verify_code(code));
}

TEST(FusePass, NeverFusesAcrossProcEntry) {
  Interner atoms;
  CodeStore code(atoms);
  i32 a0 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  i32 a1 = code.emit({Op::PutValueX, 3, 4, 0, 0});
  // a1 is a predicate entry: the window [a0, a1] must not fuse, or the
  // call would skip the first instruction — a1 must stay addressable.
  i32 p = code.proc_index(PredId{atoms.intern("p"), 0});
  code.proc(p).entry = a1;
  i32 before = code.size();
  EXPECT_EQ(fuse_code(code), 0);
  EXPECT_EQ(code.size(), before);
  EXPECT_EQ(code.at(a0).op, Op::PutValueX);
  EXPECT_EQ(code.at(code.proc(p).entry).op, Op::PutValueX);
  EXPECT_EQ(code.at(code.proc(p).entry).a, 3);
}

TEST(FusePass, NeverFusesAcrossSwitchTableEntry) {
  Interner atoms;
  CodeStore code(atoms);
  i32 a0 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  i32 a1 = code.emit({Op::PutValueX, 3, 4, 0, 0});
  i32 t = code.new_switch_table();
  code.switch_add(t, CodeStore::const_key_int(7), a1);
  code.emit({Op::SwitchOnConst, t, kFailAddr, 0, 0});
  EXPECT_EQ(fuse_code(code), 0);
  EXPECT_EQ(code.at(a0).op, Op::PutValueX);
  // The table still points at the second instruction, unswallowed.
  i32 target = code.switch_lookup(t, CodeStore::const_key_int(7));
  EXPECT_EQ(code.at(target).op, Op::PutValueX);
  EXPECT_EQ(code.at(target).a, 3);
}

TEST(FusePass, NeverFusesAcrossChoicePointChainSlot) {
  Interner atoms;
  CodeStore code(atoms);
  // Two clauses behind a try/trust chain; the second clause's entry
  // (the trust target) starts mid-way through what would otherwise be
  // a fusible run of four put_value_x.
  i32 c1 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  code.emit({Op::PutValueX, 3, 4, 0, 0});
  i32 c2 = code.emit({Op::PutValueX, 5, 6, 0, 0});
  code.emit({Op::PutValueX, 7, 8, 0, 0});
  i32 chain = code.emit({Op::Try, c1, 2, 0, 0});
  code.emit({Op::Trust, c2, 2, 0, 0});
  i32 p = code.proc_index(PredId{atoms.intern("p"), 2});
  code.proc(p).entry = chain;
  EXPECT_EQ(fuse_code(code), 2);  // each clause fuses internally
  i32 e = code.proc(p).entry;
  ASSERT_EQ(code.at(e).op, Op::Try);
  ASSERT_EQ(code.at(e + 1).op, Op::Trust);
  // Both chain targets land on intact (fused) clause heads.
  EXPECT_EQ(code.at(code.at(e).a).op, Op::FusePutValueX2);
  EXPECT_EQ(code.at(code.at(e).a).a, 1);
  EXPECT_EQ(code.at(code.at(e + 1).a).op, Op::FusePutValueX2);
  EXPECT_EQ(code.at(code.at(e + 1).a).a, 5);
  EXPECT_NO_THROW(verify_code(code));
}

TEST(FusePass, NeverFusesAcrossExplicitBranchTarget) {
  Interner atoms;
  CodeStore code(atoms);
  i32 a0 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  i32 a1 = code.emit({Op::PutValueX, 3, 4, 0, 0});
  code.emit({Op::Jump, a1, 0, 0, 0});  // a1 pinned by the jump
  EXPECT_EQ(fuse_code(code), 0);
  EXPECT_EQ(code.at(a0).op, Op::PutValueX);
}

TEST(FusePass, WindowMayStartAtBranchTarget) {
  Interner atoms;
  CodeStore code(atoms);
  i32 a0 = code.emit({Op::PutValueX, 1, 2, 0, 0});
  code.emit({Op::PutValueX, 3, 4, 0, 0});
  i32 jmp = code.emit({Op::Jump, a0, 0, 0, 0});
  // Jumping *to* the start of a window is fine: the fused instruction
  // executes both constituents, exactly what the jump expects.
  EXPECT_EQ(fuse_code(code), 1);
  i32 target = code.at(jmp - 1).a;  // jump compacted one slot left
  EXPECT_EQ(code.at(target).op, Op::FusePutValueX2);
}

TEST(FusePass, BranchTargetsCoverCompiledProgram) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  Program prog;
  prog.consult(bp.source);
  auto code = compile_program(prog, CompileOptions{});
  std::vector<i32> targets = branch_targets(*code);
  // Prelude always pinned.
  EXPECT_TRUE(std::find(targets.begin(), targets.end(), kFailAddr) != targets.end());
  EXPECT_TRUE(std::find(targets.begin(), targets.end(), kEndGoalAddr) != targets.end());
  // Every compiled proc entry is pinned.
  for (std::size_t p = 0; p < code->proc_count(); ++p) {
    i32 e = code->proc(static_cast<i32>(p)).entry;
    if (e >= 0)
      EXPECT_TRUE(std::find(targets.begin(), targets.end(), e) != targets.end())
          << "proc " << p;
  }
  // Sorted, deduped, in range.
  for (std::size_t i = 1; i < targets.size(); ++i)
    EXPECT_LT(targets[i - 1], targets[i]);
  EXPECT_GE(targets.front(), 0);
  EXPECT_LT(targets.back(), code->size());
}

TEST(FusePass, FusedWidthMatchesOpNameArity) {
  // fused_width must agree with the op's name: one '+' per extra
  // constituent. This pins the accounting the engine's fused_step()
  // bumps rely on.
  for (int v = 0; v < static_cast<int>(Op::kOpCount); ++v) {
    Op op = static_cast<Op>(v);
    std::string name = op_name(op);
    int plus = 0;
    for (char ch : name)
      if (ch == '+') ++plus;
    EXPECT_EQ(fused_width(op), plus + 1) << name;
  }
}

TEST(FusePass, CompileOptionsToggleControlsFusion) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  Program p1, p2;
  p1.consult(bp.source);
  p2.consult(bp.source);
  CompileOptions off, on;
  on.fuse = true;
  auto unfused = compile_program(p1, off);
  auto fused = compile_program(p2, on);
  EXPECT_LT(fused->size(), unfused->size());
  bool has_fused_op = false;
  for (i32 a = 0; a < fused->size(); ++a)
    if (fused_width(fused->at(a).op) > 1) has_fused_op = true;
  EXPECT_TRUE(has_fused_op);
  for (i32 a = 0; a < unfused->size(); ++a)
    EXPECT_EQ(fused_width(unfused->at(a).op), 1) << "addr " << a;
  // Both compilation modes emit verifier-clean code (compile_program
  // verifies internally; pin the invariant explicitly here too).
  EXPECT_NO_THROW(verify_code(*fused));
  EXPECT_NO_THROW(verify_code(*unfused));
}

TEST(FusePass, EveryFusedOpcodeIsEmitted) {
  // A fused opcode no benchmark program produces is dead code kept in
  // step in the enum, the pass, the engine, the verifier and op_name.
  // Compile the four benchmarks fused, as RAP-WAM and as stripped WAM,
  // and require every fused opcode in some code array.
  std::vector<bool> seen(static_cast<std::size_t>(Op::kOpCount), false);
  for (const char* name : {"qsort", "deriv", "matrix", "tak"})
    for (bool strip : {false, true}) {
      Program prog;
      prog.consult(bench_program(name, BenchScale::Paper).source);
      CompileOptions opts;
      opts.strip_cge = strip;
      opts.fuse = true;
      auto code = compile_program(prog, opts);
      for (i32 a = 0; a < code->size(); ++a)
        seen[static_cast<std::size_t>(code->at(a).op)] = true;
    }
  for (int v = 0; v < static_cast<int>(Op::kOpCount); ++v) {
    Op op = static_cast<Op>(v);
    if (fused_width(op) > 1) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(v)]) << op_name(op);
    }
  }
}

}  // namespace
}  // namespace rapwam
