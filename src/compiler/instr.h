// Parallel WAM instruction set.
//
// The sequential subset is the classic WAM of Warren's 1983 report
// (get/put/unify, try/retry/trust, switch indexing, environment
// control, cut). The RAP-WAM extensions follow Hermenegildo 1986/1988:
// run-time independence checks (check_ground / check_indep), parcall
// frame allocation (pframe), goal-frame pushing (pgoal) and the
// wait-and-schedule instruction (pwait).
//
// Operands are small integers: X/Y register indices, A registers
// (A_i == X_i), proc-table indices, code addresses, interned atom ids.
// `imm` carries 64-bit integer immediates and the fourth switch target.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "support/common.h"

namespace rapwam {

enum class Op : u8 {
  // Control.
  Call,          // a=proc idx                 call user predicate, CP=next
  Execute,       // a=proc idx                 tail call
  Proceed,       //                            return (P = CP)
  Allocate,      // a=#Y slots                 push environment
  Deallocate,    //                            pop environment
  Jump,          // a=addr
  HaltSuccess,   //                            query solved
  EndGoal,       //                            stolen parallel goal finished
  EndLocalGoal,  //                            parent-local parallel goal finished
  FailAlways,    //                            unconditional failure
  // Choice points.
  TryMeElse,     // a=alt addr
  RetryMeElse,   // a=alt addr
  TrustMe,
  Try,           // a=clause addr              push CP, alt = next instr
  Retry,         // a=clause addr
  Trust,         // a=clause addr
  // Indexing.
  SwitchOnTerm,  // a=Lvar b=Lconst c=Llist imm=Lstruct
  SwitchOnConst, // a=table idx (miss => fail)
  SwitchOnStruct,// a=table idx (miss => fail)
  // Cut.
  GetLevel,      // a=Yn                       Yn := B at clause entry
  Cut,           // a=Yn                       B := Yn, discard newer CPs
  NeckCut,       //                            B := B0 (clause-entry B)
  // Head unification.
  GetVariableX,  // a=Xn b=Ai
  GetVariableY,  // a=Yn b=Ai
  GetValueX,     // a=Xn b=Ai
  GetValueY,     // a=Yn b=Ai
  GetConstant,   // a=atom id b=Ai
  GetInteger,    // imm=value b=Ai
  GetNil,        // b=Ai
  GetStructure,  // a=functor atom id c=arity b=Ai
  GetList,       // b=Ai
  // Argument loading.
  PutVariableX,  // a=Xn b=Ai                  fresh heap var
  PutVariableY,  // a=Yn b=Ai                  fresh stack var
  PutValueX,     // a=Xn b=Ai
  PutValueY,     // a=Yn b=Ai
  PutUnsafeValue,// a=Yn b=Ai                  globalise env-local value
  PutConstant,   // a=atom id b=Ai
  PutInteger,    // imm=value b=Ai
  PutNil,        // b=Ai
  PutStructure,  // a=functor atom id c=arity b=Ai
  PutList,       // b=Ai
  // Structure argument stream.
  UnifyVariableX,  // a=Xn
  UnifyVariableY,  // a=Yn
  UnifyValueX,     // a=Xn
  UnifyValueY,     // a=Yn
  UnifyLocalValueX,// a=Xn
  UnifyLocalValueY,// a=Yn
  UnifyConstant,   // a=atom id
  UnifyInteger,    // imm=value
  UnifyNil,
  UnifyVoid,       // a=count
  // Compiled arithmetic (register-resident; no heap expression trees).
  MathLoad,      // a=dst X b=src X           deref; must yield an integer
  MathRR,        // a=MathFn b=dst X c=s1 X imm=s2 X
  MathRI,        // a=MathFn b=dst X c=s1 X imm=integer immediate
  MathCmp,       // a=CmpFn b=s1 X c=s2 X     fail unless relation holds
  // Inline predicates.
  Builtin,       // a=BuiltinId b=arity (args in A1..An)
  // RAP-WAM parallel extensions.
  CheckGround,   // a=Xn b=seq addr            jump if X not ground
  CheckIndep,    // a=Xn c=Xm b=seq addr       jump if X,Y share vars
  PFrame,        // a=#slots b=PF env slot imm=pwait addr
  PGoal,         // a=slot b=proc idx c=arity  snapshot A1..Ac, push goal
  PWait,         // a=PF env slot              schedule/execute/wait
  kOpCount,      // sentinel — keep last (sizes the threaded-dispatch table)
};

/// Inline predicate identifiers (dispatch table in the engine).
enum class BuiltinId : u8 {
  Unify,        // =/2
  Is,           // is/2
  LessThan, GreaterThan, LessEq, GreaterEq, ArithEq, ArithNeq,
  StructEq,     // ==/2
  StructNeq,    // \==/2
  Var, NonVar, Atom, Integer, Atomic, Compound,
  Ground,       // ground/1
  Indep,        // indep/2
  True, Fail,
  Write, Nl,
  Functor,      // functor/3
  Arg,          // arg/3
  Call1,        // call/1 meta-call
  TermLt, TermLe, TermGt, TermGe,  // @</2 family (standard order)
  Compare3,     // compare/3
  Univ,         // =../2
  CopyTerm,     // copy_term/2
  kCount
};

/// Arithmetic functions for MathRR/MathRI. Machine::math_apply is
/// their one definition, for compiled and interpreted arithmetic alike.
enum class MathFn : u8 {
  Add, Sub, Mul, Div, Mod, Rem, Min, Max, And, Or, Shl, Shr, Neg, Abs
};
/// The evaluable functor `name`/2 or `name`/1, if there is one. Unary
/// `+` is the identity and has no MathFn; callers handle it.
std::optional<MathFn> binary_math(const std::string& name);
std::optional<MathFn> unary_math(const std::string& name);
/// Comparison kinds for MathCmp.
enum class CmpFn : u8 { Lt, Gt, Le, Ge, Eq, Ne };

struct Instr {
  Op op = Op::FailAlways;
  i32 a = 0;
  i32 b = 0;
  i32 c = 0;
  i64 imm = 0;
};

const char* op_name(Op op);
const char* builtin_name(BuiltinId b);

/// name/arity -> builtin id, if the predicate is inline.
bool lookup_builtin(const std::string& name, u32 arity, BuiltinId& out);

}  // namespace rapwam
