// Code-generator tests: instruction sequences for representative
// clauses, indexing structure, CGE compilation, link checking.
#include <gtest/gtest.h>

#include "compiler/compile.h"

namespace rapwam {
namespace {

std::unique_ptr<CodeStore> comp(Program& p, bool strip = false) {
  CompileOptions opts;
  opts.strip_cge = strip;
  return compile_program(p, opts);
}

/// Ops of the instruction block starting at the entry of pred.
std::vector<Op> ops_at(const CodeStore& c, i32 entry, int n) {
  std::vector<Op> out;
  for (i32 i = entry; i < entry + n && i < c.size(); ++i) out.push_back(c.at(i).op);
  return out;
}

i32 entry_of(Program& p, const CodeStore& c, const std::string& name, u32 arity) {
  i32 pi = c.find_proc(p.pred_id(name, arity));
  EXPECT_GE(pi, 0);
  return c.proc(pi).entry;
}

TEST(Compiler, FactCompilesToGetsAndProceed) {
  Program p;
  p.consult("f(a, 5).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 2);
  auto ops = ops_at(*c, e, 3);
  EXPECT_EQ(ops[0], Op::GetConstant);
  EXPECT_EQ(ops[1], Op::GetInteger);
  EXPECT_EQ(ops[2], Op::Proceed);
}

TEST(Compiler, ZeroArityFact) {
  Program p;
  p.consult("a.");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "a", 0);
  EXPECT_EQ(c->at(e).op, Op::Proceed);
}

TEST(Compiler, ChainRuleUsesExecute) {
  Program p;
  p.consult("a(X) :- b(X). b(1).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "a", 1);
  // get_variable_x X,A1; put_value_x X,A1; execute b/1
  auto ops = ops_at(*c, e, 3);
  EXPECT_EQ(ops[0], Op::GetVariableX);
  EXPECT_EQ(ops[1], Op::PutValueX);
  EXPECT_EQ(ops[2], Op::Execute);
}

TEST(Compiler, TwoCallClauseAllocatesEnvironment) {
  Program p;
  p.consult("a(X) :- b(X), c(X). b(1). c(1).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "a", 1);
  EXPECT_EQ(c->at(e).op, Op::Allocate);
  // Last call via LCO: deallocate + execute at the end.
  bool saw_dealloc_exec = false;
  for (i32 i = e; i < c->size() - 1; ++i) {
    if (c->at(i).op == Op::Deallocate && c->at(i + 1).op == Op::Execute)
      saw_dealloc_exec = true;
  }
  EXPECT_TRUE(saw_dealloc_exec);
}

TEST(Compiler, HeadStructureUsesUnifyStream) {
  Program p;
  p.consult("f(g(X,Y),X).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 2);
  auto ops = ops_at(*c, e, 4);
  EXPECT_EQ(ops[0], Op::GetStructure);
  EXPECT_EQ(ops[1], Op::UnifyVariableX);
  EXPECT_EQ(ops[2], Op::UnifyVoid);  // Y occurs once: void
  EXPECT_EQ(ops[3], Op::GetValueX);
}

TEST(Compiler, NestedStructureViaQueue) {
  Program p;
  p.consult("f(g(h(a))).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 1);
  // get_structure g/1,A1; unify_variable X; get_structure h/1,X;
  // unify_constant a; proceed
  auto ops = ops_at(*c, e, 5);
  EXPECT_EQ(ops[0], Op::GetStructure);
  EXPECT_EQ(ops[1], Op::UnifyVariableX);
  EXPECT_EQ(ops[2], Op::GetStructure);
  EXPECT_EQ(ops[3], Op::UnifyConstant);
  EXPECT_EQ(ops[4], Op::Proceed);
}

TEST(Compiler, ListsUseGetListAndNil) {
  Program p;
  p.consult("f([X|T], []).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 2);
  auto ops = ops_at(*c, e, 4);
  EXPECT_EQ(ops[0], Op::GetList);
  EXPECT_EQ(ops[1], Op::UnifyVoid);  // X and T merge into one void pair
  EXPECT_EQ(ops[2], Op::GetNil);
}

TEST(Compiler, VoidVarsMerge) {
  Program p;
  p.consult("f(g(_, _, X), X).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 2);
  // get_structure, unify_void 2, unify_variable (X used again later)
  EXPECT_EQ(c->at(e + 1).op, Op::UnifyVoid);
  EXPECT_EQ(c->at(e + 1).a, 2);
  EXPECT_EQ(c->at(e + 2).op, Op::UnifyVariableX);
}

TEST(Compiler, VoidHeadArgEmitsNothing) {
  Program p;
  p.consult("f(_, a).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 2);
  EXPECT_EQ(c->at(e).op, Op::GetConstant);  // the _ produced no code
}

TEST(Compiler, MultiClausePredicateHasIndexing) {
  Program p;
  p.consult("t(a). t(b). t(c).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "t", 1);
  EXPECT_EQ(c->at(e).op, Op::SwitchOnTerm);
}

TEST(Compiler, AllVarHeadsGetPlainChain) {
  Program p;
  p.consult("t(X) :- a(X). t(X) :- b(X). a(1). b(1).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "t", 1);
  EXPECT_EQ(c->at(e).op, Op::Try);
  EXPECT_EQ(c->at(e + 1).op, Op::Trust);
  EXPECT_EQ(c->at(e).b, 1);  // arity saved for the choice point
}

TEST(Compiler, NeckCutCompiles) {
  Program p;
  p.consult("a(X) :- X < 1, !, b. a(_) :- c. b. c.");
  auto c = comp(p);
  bool has_neck = false;
  for (i32 i = 0; i < c->size(); ++i)
    if (c->at(i).op == Op::NeckCut) has_neck = true;
  EXPECT_TRUE(has_neck);
}

TEST(Compiler, DeepCutUsesGetLevel) {
  Program p;
  p.consult("a :- b, !, c. b. c.");
  auto c = comp(p);
  bool has_level = false, has_cut = false;
  for (i32 i = 0; i < c->size(); ++i) {
    if (c->at(i).op == Op::GetLevel) has_level = true;
    if (c->at(i).op == Op::Cut) has_cut = true;
  }
  EXPECT_TRUE(has_level);
  EXPECT_TRUE(has_cut);
}

TEST(Compiler, UnconditionalParcall) {
  Program p;
  p.consult("a(X,Y) :- p(X) & q(Y). p(1). q(1).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "a", 2);
  std::vector<Op> seen;
  for (i32 i = e; i < c->size(); ++i) {
    seen.push_back(c->at(i).op);
    if (c->at(i).op == Op::Proceed) break;
  }
  auto has = [&](Op op) {
    return std::find(seen.begin(), seen.end(), op) != seen.end();
  };
  EXPECT_TRUE(has(Op::PFrame));
  EXPECT_TRUE(has(Op::PGoal));
  EXPECT_TRUE(has(Op::PWait));
  EXPECT_TRUE(has(Op::Call));  // first goal runs inline on the parent
  EXPECT_FALSE(has(Op::CheckGround));
  // Only the second goal is pushed; it occupies slot 0.
  for (i32 i = e; i < c->size(); ++i) {
    if (c->at(i).op == Op::PGoal) {
      EXPECT_EQ(c->at(i).a, 0);
      break;
    }
  }
}

TEST(Compiler, ConditionalCGEHasChecksAndSeqPath) {
  Program p;
  p.consult("f(X,Y,Z) :- (indep(X,Z), ground(Y) | g(X,Y) & h(Y,Z)). g(1,1). h(1,1).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "f", 3);
  int checks = 0, calls = 0, jumps = 0;
  for (i32 i = e; i < c->size(); ++i) {
    Op op = c->at(i).op;
    if (op == Op::CheckGround || op == Op::CheckIndep) ++checks;
    if (op == Op::Call) ++calls;
    if (op == Op::Jump) ++jumps;
    if (op == Op::Proceed) break;
  }
  EXPECT_EQ(checks, 2);
  // One inline call on the parallel path + two on the fallback path.
  EXPECT_EQ(calls, 3);
  EXPECT_GE(jumps, 1);
}

TEST(Compiler, StripModeHasNoParallelInstructions) {
  Program p;
  p.consult("a(X,Y) :- p(X) & q(Y). p(1). q(1).");
  auto c = comp(p, /*strip=*/true);
  for (i32 i = 0; i < c->size(); ++i) {
    EXPECT_NE(c->at(i).op, Op::PFrame);
    EXPECT_NE(c->at(i).op, Op::PGoal);
    EXPECT_NE(c->at(i).op, Op::PWait);
  }
}

TEST(Compiler, UndefinedPredicateFailsLink) {
  Program p;
  p.consult("a :- undefined_thing.");
  EXPECT_THROW(comp(p), Error);
}

TEST(Compiler, ParallelGoalArityLimit) {
  Program p;
  p.consult(
      "a :- p(1,2,3,4,5,6,7,8,9,10,11,12,13) & q. "
      "p(_,_,_,_,_,_,_,_,_,_,_,_,_). q.");
  EXPECT_THROW(comp(p), Error);
}

TEST(Compiler, DisassemblerProducesText) {
  Program p;
  p.consult("f(a) :- g(a). g(_).");
  auto c = comp(p);
  std::string d = c->disassemble_all();
  EXPECT_NE(d.find("get_constant"), std::string::npos);
  EXPECT_NE(d.find("execute g/1"), std::string::npos);
}

TEST(Compiler, SwitchTablesResolveConstants) {
  Program p;
  p.consult("t(a, 1). t(b, 2). t(c, 3).");
  auto c = comp(p);
  i32 e = entry_of(p, *c, "t", 2);
  ASSERT_EQ(c->at(e).op, Op::SwitchOnTerm);
  i32 lconst = c->at(e).b;
  ASSERT_EQ(c->at(lconst).op, Op::SwitchOnConst);
  u32 a_id = p.atoms().intern("a");
  i32 target = c->switch_lookup(c->at(lconst).a, CodeStore::const_key_atom(a_id));
  EXPECT_NE(target, kFailAddr);
  EXPECT_EQ(c->at(target).op, Op::GetConstant);  // clause code for t(a,1)
}

TEST(CodeStoreGuards, EmitThrowsAtIndexLimit) {
  Program p;
  p.consult("a.");
  auto c = comp(p);
  c->set_index_limit_for_testing(c->size() + 2);
  i32 e1 = c->emit({Op::Proceed, 0, 0, 0, 0});
  EXPECT_EQ(e1, c->size() - 1);
  i32 e2 = c->emit({Op::Proceed, 0, 0, 0, 0});
  EXPECT_EQ(e2, c->size() - 1);
  try {
    c->emit({Op::Proceed, 0, 0, 0, 0});
    FAIL() << "emit past the index limit must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("code store overflow"), std::string::npos);
  }
}

TEST(CodeStoreGuards, ProcIndexThrowsAtIndexLimit) {
  Program p;
  p.consult("a.");
  auto c = comp(p);
  c->set_index_limit_for_testing(static_cast<i32>(c->proc_count()) + 1);
  c->proc_index(PredId{1000, 1});  // fills the last free slot
  EXPECT_GE(c->proc_index(PredId{1000, 1}), 0);  // lookup of existing: fine
  try {
    c->proc_index(PredId{1000, 2});
    FAIL() << "proc_index past the index limit must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("proc table overflow"), std::string::npos);
  }
}

TEST(CodeStoreGuards, NewSwitchTableThrowsAtIndexLimit) {
  Program p;
  p.consult("a.");
  auto c = comp(p);
  c->set_index_limit_for_testing(1);
  bool had_table = false;
  try {
    c->new_switch_table();
    had_table = true;
    c->new_switch_table();
    FAIL() << "new_switch_table past the index limit must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("switch-table overflow"),
              std::string::npos);
  }
  EXPECT_TRUE(had_table);  // only the second creation may throw
}

TEST(Disassembler, EveryOpcodeHasANameAndListing) {
  // Round-trip over the whole opcode space: no Op value may
  // disassemble to the "?" fallback, so adding an opcode
  // without teaching op_name/disassemble about it fails here instead
  // of drifting silently.
  Program p;
  p.consult("a.");  // gives the store a proc (idx 0) and interned atoms
  auto c = comp(p);
  for (int v = 0; v < static_cast<int>(Op::kOpCount); ++v) {
    Op op = static_cast<Op>(v);
    std::string name = op_name(op);
    EXPECT_NE(name, "?") << "op value " << v;
    i32 addr = c->emit({op, 0, 0, 0, 0});
    std::string listing = c->disassemble(addr, addr + 1);
    EXPECT_NE(listing.find(name), std::string::npos)
        << "listing for op " << v << ": " << listing;
    EXPECT_EQ(listing.find('?'), std::string::npos)
        << "listing for op " << v << ": " << listing;
  }
  EXPECT_STREQ(op_name(Op::kOpCount), "?");  // out-of-range sentinel only
}

TEST(LinkCheck, UndefinedPredicateInProgramThrowsNamedError) {
  Program p;
  p.consult("a :- undefined_helper(1).");
  try {
    comp(p);
    FAIL() << "link check must reject the undefined predicate";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("undefined_helper/1"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace rapwam
