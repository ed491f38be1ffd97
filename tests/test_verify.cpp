// Bytecode-verifier suite (DESIGN.md §14): the static pass in
// compiler/verify.{h,cpp} must accept everything the compiler emits —
// all four paper benchmarks, fused and unfused — and reject every
// malformed CodeStore with a structured "verify:" Error before the
// first instruction could execute. Rule-by-rule unit tests forge
// stores by hand; the fuzz tests mutate real compiled programs
// (bit flips, truncation, opcode forgery) and require rejection, or —
// for arbitrary bit flips — at worst a clean pass, never UB or an
// unstructured crash (the ASan shard runs this suite for exactly that
// reason).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.h"
#include "compiler/fuse.h"
#include "compiler/verify.h"
#include "harness/programs.h"
#include "support/interner.h"
#include "test_rand.h"

namespace rapwam {
namespace {

/// A compiled benchmark. The store's Interner& points into `prog`, so
/// `prog` is declared first and outlives `code`.
struct CompiledBench {
  Program prog;
  std::unique_ptr<CodeStore> code;
};

CompiledBench compile_bench(const std::string& name, bool fuse,
                            BenchScale scale = BenchScale::Small) {
  CompiledBench out;
  out.prog.consult(bench_program(name, scale).source);
  CompileOptions opts;
  opts.fuse = fuse;
  out.code = compile_program(out.prog, opts);
  return out;
}

/// Runs the verifier expecting a rejection whose message carries the
/// structured "verify:" prefix and the rule-specific `fragment`.
void expect_reject(const CodeStore& code, const std::string& fragment) {
  try {
    verify_code(code);
    FAIL() << "verifier accepted a store that should trip \"" << fragment
           << "\"";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("verify:"), std::string::npos) << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Rule unit tests on hand-forged stores. The CodeStore constructor
// emits the reserved prelude (fail / end-goal / end-local-goal), so a
// fresh store plus one forged instruction is the minimal subject.

TEST(VerifierRules, AcceptsMinimalForgedProgram) {
  Interner atoms;
  CodeStore code(atoms);
  i32 p = code.proc_index(PredId{atoms.intern("q"), 0});
  code.proc(p).entry = code.emit({Op::PutNil, 0, 1, 0, 0});
  code.emit({Op::Proceed, 0, 0, 0, 0});
  EXPECT_NO_THROW(verify_code(code));
}

TEST(VerifierRules, RejectsJumpPastEnd) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::Jump, code.size() + 10, 0, 0, 0});
  expect_reject(code, "out of range");
}

TEST(VerifierRules, RejectsNegativeBranchTarget) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::TryMeElse, -5, 2, 0, 0});
  expect_reject(code, "alternative target -5");
}

TEST(VerifierRules, RejectsSwitchOnTermArmOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  // First three arms legal (the prelude addresses), imm arm dangling.
  code.emit({Op::SwitchOnTerm, kFailAddr, kFailAddr, kFailAddr, 9999});
  expect_reject(code, "struct target 9999");
}

TEST(VerifierRules, RejectsXRegisterOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::PutValueX, kVerifyMaxXRegs, 1, 0, 0});
  expect_reject(code, "X register 256");
}

TEST(VerifierRules, RejectsNegativeXRegister) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::GetVariableX, 0, -1, 0, 0});
  expect_reject(code, "X register -1");
}

TEST(VerifierRules, RejectsYSlotOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::GetValueY, kVerifyMaxYSlots, 0, 0, 0});
  expect_reject(code, "Y slot");
}

TEST(VerifierRules, RejectsCallToMissingProc) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::Call, 0, 0, 0, 0});  // no procs exist at all
  expect_reject(code, "proc index 0 out of range [0,0)");
}

TEST(VerifierRules, RejectsExecuteProcIndexOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  code.proc_index(PredId{atoms.intern("p"), 1});
  code.emit({Op::Execute, 5, 0, 0, 0});
  expect_reject(code, "proc index 5 out of range [0,1)");
}

TEST(VerifierRules, RejectsDanglingProcEntry) {
  Interner atoms;
  CodeStore code(atoms);
  i32 p = code.proc_index(PredId{atoms.intern("p"), 0});
  code.proc(p).entry = 400;  // past the end; -1 (unlinked) would be legal
  expect_reject(code, "proc 0 entry 400 out of range");
}

TEST(VerifierRules, RejectsSwitchTableIdOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::SwitchOnConst, 0, kFailAddr, 0, 0});  // no tables exist
  expect_reject(code, "switch table id 0 out of range");
}

TEST(VerifierRules, RejectsSwitchTableEntryOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  i32 t = code.new_switch_table();
  code.switch_add(t, CodeStore::const_key_int(7), 999);
  code.emit({Op::SwitchOnConst, t, kFailAddr, 0, 0});
  expect_reject(code, "switch table 0 entry target 999");
}

TEST(VerifierRules, RejectsAtomIdOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::PutConstant, static_cast<i32>(atoms.size()) + 50, 1, 0, 0});
  expect_reject(code, "atom id");
}

TEST(VerifierRules, RejectsFunctorArityOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  i32 f = static_cast<i32>(atoms.intern("f"));
  code.emit({Op::GetStructure, f, 1, 1 << 16, 0});
  expect_reject(code, "arity");
}

TEST(VerifierRules, RejectsChoicePointArgCountOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  // Saved argument registers A1..An must fit the X file.
  code.emit({Op::TryMeElse, kFailAddr, kVerifyMaxXRegs + 10, 0, 0});
  expect_reject(code, "argument count");
}

TEST(VerifierRules, RejectsBadMathFn) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::MathRR, 99, 0, 1, 2});
  expect_reject(code, "math function 99");
}

TEST(VerifierRules, RejectsMathRRImmRegisterOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  // MathRR's second source rides in imm and indexes the X file raw.
  code.emit({Op::MathRR, static_cast<i32>(MathFn::Add), 0, 1, 777});
  expect_reject(code, "source 2 X register 777");
}

TEST(VerifierRules, RejectsBadCmpFn) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::MathCmp, 42, 0, 1, 0});
  expect_reject(code, "compare function 42");
}

TEST(VerifierRules, RejectsBadBuiltinId) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::Builtin, static_cast<i32>(BuiltinId::kCount), 1, 0, 0});
  expect_reject(code, "builtin id");
}

TEST(VerifierRules, RejectsParGoalArityOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  code.proc_index(PredId{atoms.intern("g"), 0});
  code.emit({Op::PGoal, 0, 0, static_cast<i32>(kMaxParGoalArity) + 1, 0});
  expect_reject(code, "parallel goal arity");
}

TEST(VerifierRules, RejectsPFrameDanglingPwaitAddr) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::PFrame, 2, 0, 0, 5555});
  expect_reject(code, "pwait target 5555");
}

TEST(VerifierRules, RejectsSentinelOpcode) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::kOpCount, 0, 0, 0, 0});
  expect_reject(code, "bad opcode");
}

TEST(VerifierRules, RejectsUnknownOpcodeByte) {
  Interner atoms;
  CodeStore code(atoms);
  Instr forged;
  forged.op = static_cast<Op>(0xEE);
  code.emit(forged);
  expect_reject(code, "bad opcode 238");
}

TEST(VerifierRules, RejectsCorruptReservedPrelude) {
  Interner atoms;
  CodeStore code(atoms);
  code.at(kFailAddr).op = Op::Proceed;
  expect_reject(code, "reserved prelude");
}

TEST(VerifierRules, RejectsStoreTooShortForPrelude) {
  Interner atoms;
  CodeStore code(atoms);
  code.replace_code({Instr{Op::FailAlways, 0, 0, 0, 0}});
  expect_reject(code, "lacks the reserved prelude");
}

// -- fused superinstructions: the register indices packed into imm ----------

TEST(VerifierRules, RejectsFusedImmRegisterOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  code.emit({Op::FusePutValueX2, 1, 2, 3, 300});
  expect_reject(code, "op2 destination X register 300");
}

TEST(VerifierRules, RejectsFusedHighImmFieldOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  // FusePutValueX3's third window packs (src,dst) into imm bits 16..47.
  i64 imm = (i64{300} << 32) | (i64{1} << 16) | 2;
  code.emit({Op::FusePutValueX3, 1, 2, 3, imm});
  expect_reject(code, "op3 destination X register 300");
}

TEST(VerifierRules, RejectsFusedCmpGuardBadCompareFn) {
  Interner atoms;
  CodeStore code(atoms);
  i64 imm = (i64{99} << 16) | 4;  // cmp fn 99, legal temp register 4
  code.emit({Op::FuseCmpGuard, 1, 2, 3, imm});
  expect_reject(code, "compare function 99");
}

TEST(VerifierRules, RejectsFusedExecuteProcOutOfRange) {
  Interner atoms;
  CodeStore code(atoms);
  code.proc_index(PredId{atoms.intern("p"), 2});
  i64 imm = (i64{7} << 32) | 3;  // proc 7 of 1
  code.emit({Op::FusePutValueX2Execute, 1, 2, 3, imm});
  expect_reject(code, "tail call proc index 7");
}

TEST(VerifierRules, RejectsFusedMathCmpPackedRegisterOverflow) {
  Interner atoms;
  CodeStore code(atoms);
  i64 imm = (i64{999} << 16) | 1;  // compare source 1 = X999
  code.emit({Op::FuseMathLoadMathCmp, 1, 2, static_cast<i32>(CmpFn::Lt), imm});
  expect_reject(code, "compare source 1 X register 999");
}

// ---------------------------------------------------------------------------
// Corpus: everything the compiler emits must verify clean, fused and
// unfused, at both benchmark scales (the golden-corpus programs are
// exactly these four benchmarks).

TEST(VerifierCorpus, AcceptsCompiledPaperBenchmarks) {
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    for (bool fuse : {false, true}) {
      SCOPED_TRACE(std::string(name) + (fuse ? "/fused" : "/plain"));
      auto [prog, code] = compile_bench(name, fuse);
      EXPECT_NO_THROW(verify_code(*code));
    }
  }
}

TEST(VerifierCorpus, AcceptsPaperScaleAndStrippedCompilation) {
  for (const char* name : {"qsort", "tak"}) {
    BenchProgram bp = bench_program(name, BenchScale::Paper);
    Program prog;
    prog.consult(bp.source);
    CompileOptions opts;
    opts.strip_cge = true;  // sequential-WAM baseline path
    opts.fuse = true;
    EXPECT_NO_THROW(verify_code(*compile_program(prog, opts)));
  }
}

TEST(VerifierCorpus, AcceptsFusePassAppliedDirectly) {
  // The differential path tests run fuse_code on stores compiled with
  // fusion off; that combination must stay verifiable too.
  auto [prog, code] = compile_bench("deriv", /*fuse=*/false);
  fuse_code(*code);
  EXPECT_NO_THROW(verify_code(*code));
}

// ---------------------------------------------------------------------------
// Fuzz: mutate real compiled programs. Guaranteed-invalid mutations
// must reject; arbitrary bit flips must reject-or-pass with no UB.

std::vector<Instr> snapshot(const CodeStore& code) {
  std::vector<Instr> out;
  out.reserve(static_cast<std::size_t>(code.size()));
  for (i32 i = 0; i < code.size(); ++i) out.push_back(code.at(i));
  return out;
}

TEST(VerifierFuzz, TruncatedStoresAlwaysRejected) {
  auto [prog, code] = compile_bench("qsort", /*fuse=*/true);
  const std::vector<Instr> full = snapshot(*code);
  // Any cut at or below the highest proc entry leaves that entry
  // dangling, so every such truncation is guaranteed-invalid.
  i32 max_entry = 0;
  for (i32 p = 0; p < static_cast<i32>(code->proc_count()); ++p)
    max_entry = std::max(max_entry, code->proc(p).entry);
  ASSERT_GT(max_entry, 3);
  Lcg rng(0x7259C471u);
  for (int i = 0; i < 32; ++i) {
    i32 cut = 3 + static_cast<i32>(rng.next(static_cast<u64>(max_entry - 2)));
    SCOPED_TRACE(cut);
    code->replace_code(std::vector<Instr>(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_THROW(verify_code(*code), Error);
    code->replace_code(full);
  }
}

TEST(VerifierFuzz, ForgedOpcodeBytesAlwaysRejected) {
  auto [prog, code] = compile_bench("deriv", /*fuse=*/true);
  const std::vector<Instr> full = snapshot(*code);
  Lcg rng(0xBADC0DEu);
  for (int i = 0; i < 64; ++i) {
    i32 at = static_cast<i32>(rng.next(static_cast<u64>(code->size())));
    u8 byte = static_cast<u8>(static_cast<u64>(Op::kOpCount) +
                              rng.next(256 - static_cast<u64>(Op::kOpCount)));
    code->at(at).op = static_cast<Op>(byte);
    expect_reject(*code, at < 3 ? "" : "bad opcode");
    code->at(at) = full[static_cast<std::size_t>(at)];
  }
}

TEST(VerifierFuzz, ForgedOperandOverflowsAlwaysRejected) {
  // Walk a real fused program and, per opcode, plant an operand the
  // rule table guarantees is invalid. Every plant must reject.
  auto [prog, code] = compile_bench("qsort", /*fuse=*/true);
  const std::vector<Instr> full = snapshot(*code);
  int planted = 0;
  for (i32 at = 3; at < code->size(); ++at) {
    Instr& ins = code->at(at);
    bool mutated = true;
    switch (ins.op) {
      case Op::Call:
      case Op::Execute:
        ins.a = static_cast<i32>(code->proc_count()) + 11;
        break;
      case Op::Jump:
      case Op::TryMeElse:
      case Op::RetryMeElse:
      case Op::Try:
      case Op::Retry:
      case Op::Trust:
        ins.a = code->size() + 1000;
        break;
      case Op::SwitchOnTerm:
        ins.imm = code->size() + 1000;
        break;
      case Op::SwitchOnConst:
      case Op::SwitchOnStruct:
        ins.a = code->table_count() + 4;
        break;
      case Op::GetVariableX:
      case Op::GetValueX:
      case Op::PutVariableX:
      case Op::PutValueX:
      case Op::FusePutValueX2:
      case Op::FuseGetVarXPutValueX:
      case Op::FuseGetVarX2:
        ins.b = kVerifyMaxXRegs + at;
        break;
      case Op::GetConstant:
      case Op::PutConstant:
      case Op::UnifyConstant:
      case Op::GetStructure:
      case Op::PutStructure:
        ins.a = static_cast<i32>(code->atoms().size()) + 9;
        break;
      case Op::MathRR:
      case Op::MathRI:
        ins.a = 200;  // no such MathFn
        break;
      case Op::MathCmp:
        ins.a = 200;  // no such CmpFn
        break;
      case Op::PGoal:
        ins.c = static_cast<i32>(kMaxParGoalArity) + 1;
        break;
      default:
        mutated = false;
    }
    if (!mutated) continue;
    ++planted;
    SCOPED_TRACE(at);
    EXPECT_THROW(verify_code(*code), Error);
    ins = full[static_cast<std::size_t>(at)];
  }
  // The sweep must have actually exercised a spread of rules.
  EXPECT_GE(planted, 20);
  EXPECT_NO_THROW(verify_code(*code));  // restoration left it pristine
}

TEST(VerifierFuzz, RandomBitFlipsRejectStructuredOrPassClean) {
  // Arbitrary single-bit corruption: the verifier must either throw a
  // structured "verify:" Error or accept the store — never crash or
  // index out of bounds itself (the ASan shard enforces the latter).
  auto [prog, code] = compile_bench("matrix", /*fuse=*/true);
  const std::vector<Instr> full = snapshot(*code);
  Lcg rng(0xF11BB5EEu);
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    i32 at = static_cast<i32>(rng.next(static_cast<u64>(code->size())));
    Instr& ins = code->at(at);
    switch (rng.next(5)) {
      case 0:
        ins.op = static_cast<Op>(static_cast<u8>(ins.op) ^
                                 (1u << rng.next(8)));
        break;
      case 1:
        ins.a ^= 1 << rng.next(31);
        break;
      case 2:
        ins.b ^= 1 << rng.next(31);
        break;
      case 3:
        ins.c ^= 1 << rng.next(31);
        break;
      default:
        ins.imm ^= i64{1} << rng.next(63);
        break;
    }
    try {
      verify_code(*code);
    } catch (const Error& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("verify:"), std::string::npos)
          << e.what();
    }
    ins = full[static_cast<std::size_t>(at)];
  }
  // High-bit flips land far out of range, so a healthy majority of
  // flips must have been caught.
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace rapwam
