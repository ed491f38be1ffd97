#include "compiler/verify.h"

#include <string>

#include "compiler/compile.h"
#include "support/interner.h"

namespace rapwam {

namespace {

// MathFn / CmpFn carry no sentinel; keep these in sync with instr.h.
constexpr i32 kMathFnCount = static_cast<i32>(MathFn::Abs) + 1;
constexpr i32 kCmpFnCount = static_cast<i32>(CmpFn::Ne) + 1;

class Verifier {
 public:
  explicit Verifier(const CodeStore& code)
      : code_(code),
        size_(code.size()),
        procs_(static_cast<i32>(code.proc_count())),
        tables_(code.table_count()),
        atoms_(static_cast<i64>(code.atoms().size())) {}

  void run() {
    prelude();
    for (addr_ = 0; addr_ < size_; ++addr_) instr(code_.at(addr_));
    addr_ = -1;
    for (i32 p = 0; p < procs_; ++p) {
      i32 e = code_.proc(p).entry;
      if (e != -1 && (e < 0 || e >= size_))
        reject("proc " + std::to_string(p) + " entry " + std::to_string(e) +
               " out of range");
    }
    code_.for_each_switch_entry([&](i32 table, u64 key, i32 a) {
      (void)key;
      if (a < 0 || a >= size_)
        reject("switch table " + std::to_string(table) + " entry target " +
               std::to_string(a) + " out of range");
    });
  }

 private:
  [[noreturn]] void reject(const std::string& what) const {
    std::string where =
        addr_ < 0 ? std::string()
                  : "@" + std::to_string(addr_) + " " +
                        op_name(code_.at(addr_).op) + ": ";
    fail("verify: " + where + what);
  }

  void prelude() {
    if (size_ < 3) reject("code store lacks the reserved prelude");
    if (code_.at(kFailAddr).op != Op::FailAlways ||
        code_.at(kEndGoalAddr).op != Op::EndGoal ||
        code_.at(kEndLocalGoalAddr).op != Op::EndLocalGoal)
      reject("reserved prelude opcodes are corrupt");
  }

  void addr(i64 a, const char* what) const {
    if (a < 0 || a >= size_)
      reject(std::string(what) + " target " + std::to_string(a) +
             " out of range [0," + std::to_string(size_) + ")");
  }
  void xreg(i64 r, const char* what) const {
    if (r < 0 || r >= kVerifyMaxXRegs)
      reject(std::string(what) + " X register " + std::to_string(r) +
             " out of range [0," + std::to_string(kVerifyMaxXRegs) + ")");
  }
  void yslot(i64 y, const char* what) const {
    if (y < 0 || y >= kVerifyMaxYSlots)
      reject(std::string(what) + " Y slot " + std::to_string(y) +
             " out of range");
  }
  void proc(i64 p, const char* what) const {
    if (p < 0 || p >= procs_)
      reject(std::string(what) + " proc index " + std::to_string(p) +
             " out of range [0," + std::to_string(procs_) + ")");
  }
  void table(i64 t) const {
    if (t < 0 || t >= tables_)
      reject("switch table id " + std::to_string(t) + " out of range [0," +
             std::to_string(tables_) + ")");
  }
  void atom(i64 a, const char* what) const {
    if (a < 0 || a >= atoms_)
      reject(std::string(what) + " atom id " + std::to_string(a) +
             " out of range [0," + std::to_string(atoms_) + ")");
  }
  void arity(i64 n, const char* what) const {
    // Functor arities pack into 16 bits (CodeStore::struct_key).
    if (n < 0 || n >= (i64{1} << 16))
      reject(std::string(what) + " arity " + std::to_string(n) +
             " out of range");
  }
  void nargs(i64 n, const char* what) const {
    // Saved/snapshotted argument registers A1..An must stay within X.
    if (n < 0 || n >= kVerifyMaxXRegs)
      reject(std::string(what) + " argument count " + std::to_string(n) +
             " out of range");
  }
  void math_fn(i64 f) const {
    if (f < 0 || f >= kMathFnCount)
      reject("math function " + std::to_string(f) + " out of range");
  }
  void cmp_fn(i64 f) const {
    if (f < 0 || f >= kCmpFnCount)
      reject("compare function " + std::to_string(f) + " out of range");
  }

  void instr(const Instr& ins) const {
    if (static_cast<std::size_t>(ins.op) >=
        static_cast<std::size_t>(Op::kOpCount))
      fail("verify: @" + std::to_string(addr_) + ": bad opcode " +
           std::to_string(static_cast<unsigned>(ins.op)));
    switch (ins.op) {
      // -- control ------------------------------------------------------
      case Op::Call:
      case Op::Execute:
        proc(ins.a, "call");
        break;
      case Op::Proceed:
      case Op::Deallocate:
      case Op::HaltSuccess:
      case Op::EndGoal:
      case Op::EndLocalGoal:
      case Op::FailAlways:
      case Op::TrustMe:
      case Op::NeckCut:
      case Op::UnifyNil:
      case Op::UnifyInteger:
        break;
      case Op::Allocate:
        yslot(ins.a, "environment size");
        break;
      case Op::Jump:
        addr(ins.a, "jump");
        break;
      // -- choice points ------------------------------------------------
      case Op::TryMeElse:
      case Op::Try:
        addr(ins.a, "alternative");
        nargs(ins.b, "choice point");
        break;
      case Op::RetryMeElse:
      case Op::Retry:
      case Op::Trust:
        addr(ins.a, "alternative");
        break;
      // -- indexing -----------------------------------------------------
      case Op::SwitchOnTerm:
        addr(ins.a, "var");
        addr(ins.b, "const");
        addr(ins.c, "list");
        addr(ins.imm, "struct");
        break;
      case Op::SwitchOnConst:
      case Op::SwitchOnStruct:
        table(ins.a);
        addr(ins.b, "default");
        break;
      // -- cut ----------------------------------------------------------
      case Op::GetLevel:
      case Op::Cut:
        yslot(ins.a, "cut level");
        break;
      // -- head unification / argument loading --------------------------
      case Op::GetVariableX:
      case Op::GetValueX:
      case Op::PutVariableX:
      case Op::PutValueX:
        xreg(ins.a, "source");
        xreg(ins.b, "argument");
        break;
      case Op::GetVariableY:
      case Op::GetValueY:
      case Op::PutVariableY:
      case Op::PutValueY:
      case Op::PutUnsafeValue:
        yslot(ins.a, "permanent");
        xreg(ins.b, "argument");
        break;
      case Op::GetConstant:
      case Op::PutConstant:
        atom(ins.a, "constant");
        xreg(ins.b, "argument");
        break;
      case Op::GetInteger:
      case Op::PutInteger:
      case Op::GetNil:
      case Op::PutNil:
      case Op::GetList:
      case Op::PutList:
        xreg(ins.b, "argument");
        break;
      case Op::GetStructure:
      case Op::PutStructure:
        atom(ins.a, "functor");
        arity(ins.c, "functor");
        xreg(ins.b, "argument");
        break;
      // -- structure argument stream ------------------------------------
      case Op::UnifyVariableX:
      case Op::UnifyValueX:
      case Op::UnifyLocalValueX:
        xreg(ins.a, "unify");
        break;
      case Op::UnifyVariableY:
      case Op::UnifyValueY:
      case Op::UnifyLocalValueY:
        yslot(ins.a, "unify");
        break;
      case Op::UnifyConstant:
        atom(ins.a, "constant");
        break;
      case Op::UnifyVoid:
        yslot(ins.a, "void count");  // same structural bound as env sizes
        break;
      // -- compiled arithmetic ------------------------------------------
      case Op::MathLoad:
        xreg(ins.a, "destination");
        xreg(ins.b, "source");
        break;
      case Op::MathRR:
        math_fn(ins.a);
        xreg(ins.b, "destination");
        xreg(ins.c, "source 1");
        xreg(ins.imm, "source 2");
        break;
      case Op::MathRI:
        math_fn(ins.a);
        xreg(ins.b, "destination");
        xreg(ins.c, "source");
        break;
      case Op::MathCmp:
        cmp_fn(ins.a);
        xreg(ins.b, "source 1");
        xreg(ins.c, "source 2");
        break;
      case Op::Builtin:
        if (ins.a < 0 || ins.a >= static_cast<i32>(BuiltinId::kCount))
          reject("builtin id " + std::to_string(ins.a) + " out of range");
        nargs(ins.b, "builtin");
        break;
      // -- RAP-WAM parallel extensions ----------------------------------
      case Op::CheckGround:
        xreg(ins.a, "checked");
        addr(ins.b, "sequential fallback");
        break;
      case Op::CheckIndep:
        xreg(ins.a, "checked");
        xreg(ins.c, "checked");
        addr(ins.b, "sequential fallback");
        break;
      case Op::PFrame:
        yslot(ins.a, "slot count");
        yslot(ins.b, "frame");
        addr(ins.imm, "pwait");
        break;
      case Op::PGoal:
        yslot(ins.a, "slot");
        proc(ins.b, "goal");
        if (ins.c < 0 || ins.c > static_cast<i32>(kMaxParGoalArity))
          reject("parallel goal arity " + std::to_string(ins.c) +
                 " out of range");
        break;
      case Op::PWait:
        yslot(ins.a, "frame");
        break;
      case Op::kOpCount:
        reject("sentinel opcode in code stream");
    }
  }

  const CodeStore& code_;
  const i32 size_;
  const i32 procs_;
  const i32 tables_;
  const i64 atoms_;
  i32 addr_ = -1;
};

}  // namespace

void verify_code(const CodeStore& code) { Verifier(code).run(); }

}  // namespace rapwam
