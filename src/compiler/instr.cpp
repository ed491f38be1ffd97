#include "compiler/instr.h"

#include <unordered_map>

namespace rapwam {

const char* op_name(Op op) {
  switch (op) {
    case Op::Call: return "call";
    case Op::Execute: return "execute";
    case Op::Proceed: return "proceed";
    case Op::Allocate: return "allocate";
    case Op::Deallocate: return "deallocate";
    case Op::Jump: return "jump";
    case Op::HaltSuccess: return "halt_success";
    case Op::EndGoal: return "end_goal";
    case Op::EndLocalGoal: return "end_local_goal";
    case Op::FailAlways: return "fail";
    case Op::TryMeElse: return "try_me_else";
    case Op::RetryMeElse: return "retry_me_else";
    case Op::TrustMe: return "trust_me";
    case Op::Try: return "try";
    case Op::Retry: return "retry";
    case Op::Trust: return "trust";
    case Op::SwitchOnTerm: return "switch_on_term";
    case Op::SwitchOnConst: return "switch_on_constant";
    case Op::SwitchOnStruct: return "switch_on_structure";
    case Op::GetLevel: return "get_level";
    case Op::Cut: return "cut";
    case Op::NeckCut: return "neck_cut";
    case Op::GetVariableX: return "get_variable_x";
    case Op::GetVariableY: return "get_variable_y";
    case Op::GetValueX: return "get_value_x";
    case Op::GetValueY: return "get_value_y";
    case Op::GetConstant: return "get_constant";
    case Op::GetInteger: return "get_integer";
    case Op::GetNil: return "get_nil";
    case Op::GetStructure: return "get_structure";
    case Op::GetList: return "get_list";
    case Op::PutVariableX: return "put_variable_x";
    case Op::PutVariableY: return "put_variable_y";
    case Op::PutValueX: return "put_value_x";
    case Op::PutValueY: return "put_value_y";
    case Op::PutUnsafeValue: return "put_unsafe_value";
    case Op::PutConstant: return "put_constant";
    case Op::PutInteger: return "put_integer";
    case Op::PutNil: return "put_nil";
    case Op::PutStructure: return "put_structure";
    case Op::PutList: return "put_list";
    case Op::UnifyVariableX: return "unify_variable_x";
    case Op::UnifyVariableY: return "unify_variable_y";
    case Op::UnifyValueX: return "unify_value_x";
    case Op::UnifyValueY: return "unify_value_y";
    case Op::UnifyLocalValueX: return "unify_local_value_x";
    case Op::UnifyLocalValueY: return "unify_local_value_y";
    case Op::UnifyConstant: return "unify_constant";
    case Op::UnifyInteger: return "unify_integer";
    case Op::UnifyNil: return "unify_nil";
    case Op::UnifyVoid: return "unify_void";
    case Op::MathLoad: return "math_load";
    case Op::MathRR: return "math_rr";
    case Op::MathRI: return "math_ri";
    case Op::MathCmp: return "math_cmp";
    case Op::Builtin: return "builtin";
    case Op::CheckGround: return "check_ground";
    case Op::CheckIndep: return "check_indep";
    case Op::PFrame: return "pframe";
    case Op::PGoal: return "pgoal";
    case Op::PWait: return "pwait";
    case Op::FusePutValueX2: return "put_value_x+put_value_x";
    case Op::FusePutValueXMathLoad: return "put_value_x+math_load";
    case Op::FusePutValueXExecute: return "put_value_x+execute";
    case Op::FuseUnifyVarXGetVarX: return "unify_variable_x+get_variable_x";
    case Op::FuseUnifyVarX2: return "unify_variable_x+unify_variable_x";
    case Op::FuseGetListUnifyVarX2:
      return "get_list+unify_variable_x+unify_variable_x";
    case Op::FuseGetListUnifyVarX: return "get_list+unify_variable_x";
    case Op::FuseGetListUnifyLocalX: return "get_list+unify_local_value_x";
    case Op::FuseGetVarXPutValueX: return "get_variable_x+put_value_x";
    case Op::FuseGetVarX2: return "get_variable_x+get_variable_x";
    case Op::FuseGetVarXGetList: return "get_variable_x+get_list";
    case Op::FuseMathLoadPutValueX: return "math_load+put_value_x";
    case Op::FuseMathLoadMathCmp: return "math_load+math_cmp";
    case Op::FuseUnifyLocalXUnifyVarX:
      return "unify_local_value_x+unify_variable_x";
    case Op::FuseGetStructUnifyVarX: return "get_structure+unify_variable_x";
    case Op::FusePutValueX3:
      return "put_value_x+put_value_x+put_value_x";
    case Op::FuseNeckCutPutValueX: return "neck_cut+put_value_x";
    case Op::FuseUnifyVarXPutValueX: return "unify_variable_x+put_value_x";
    case Op::FusePutUnsafeY2: return "put_unsafe_value+put_unsafe_value";
    case Op::FuseMathRIGetVarX: return "math_ri+get_variable_x";
    case Op::FuseMathLoadMathRR: return "math_load+math_rr";
    case Op::FuseMathRRGetVarX: return "math_rr+get_variable_x";
    case Op::FuseCmpGuard:
      return "put_value_x+math_load+put_value_x+math_load+math_cmp";
    case Op::FusePutValueX2Execute:
      return "put_value_x+put_value_x+execute";
    case Op::FuseNeckCutPutValueX2:
      return "neck_cut+put_value_x+put_value_x";
    case Op::FuseGetVarXGetListUnifyLocalX:
      return "get_variable_x+get_list+unify_local_value_x";
    case Op::kOpCount: break;
  }
  return "?";
}

std::optional<MathFn> binary_math(const std::string& n) {
  if (n == "+") return MathFn::Add;
  if (n == "-") return MathFn::Sub;
  if (n == "*") return MathFn::Mul;
  if (n == "//" || n == "/") return MathFn::Div;
  if (n == "mod") return MathFn::Mod;
  if (n == "rem") return MathFn::Rem;
  if (n == "min") return MathFn::Min;
  if (n == "max") return MathFn::Max;
  if (n == "/\\") return MathFn::And;
  if (n == "\\/") return MathFn::Or;
  if (n == "<<") return MathFn::Shl;
  if (n == ">>") return MathFn::Shr;
  return std::nullopt;
}

std::optional<MathFn> unary_math(const std::string& n) {
  if (n == "-") return MathFn::Neg;
  if (n == "abs") return MathFn::Abs;
  return std::nullopt;
}

const char* builtin_name(BuiltinId b) {
  switch (b) {
    case BuiltinId::Unify: return "=";
    case BuiltinId::Is: return "is";
    case BuiltinId::LessThan: return "<";
    case BuiltinId::GreaterThan: return ">";
    case BuiltinId::LessEq: return "=<";
    case BuiltinId::GreaterEq: return ">=";
    case BuiltinId::ArithEq: return "=:=";
    case BuiltinId::ArithNeq: return "=\\=";
    case BuiltinId::StructEq: return "==";
    case BuiltinId::StructNeq: return "\\==";
    case BuiltinId::Var: return "var";
    case BuiltinId::NonVar: return "nonvar";
    case BuiltinId::Atom: return "atom";
    case BuiltinId::Integer: return "integer";
    case BuiltinId::Atomic: return "atomic";
    case BuiltinId::Compound: return "compound";
    case BuiltinId::Ground: return "ground";
    case BuiltinId::Indep: return "indep";
    case BuiltinId::True: return "true";
    case BuiltinId::Fail: return "fail";
    case BuiltinId::Write: return "write";
    case BuiltinId::Nl: return "nl";
    case BuiltinId::Functor: return "functor";
    case BuiltinId::Arg: return "arg";
    case BuiltinId::Call1: return "call";
    case BuiltinId::TermLt: return "@<";
    case BuiltinId::TermLe: return "@=<";
    case BuiltinId::TermGt: return "@>";
    case BuiltinId::TermGe: return "@>=";
    case BuiltinId::Compare3: return "compare";
    case BuiltinId::Univ: return "=..";
    case BuiltinId::CopyTerm: return "copy_term";
    case BuiltinId::kCount: break;
  }
  return "?";
}

bool lookup_builtin(const std::string& name, u32 arity, BuiltinId& out) {
  struct Key {
    const char* n;
    u32 a;
    BuiltinId id;
  };
  static const Key table[] = {
      {"=", 2, BuiltinId::Unify},
      {"is", 2, BuiltinId::Is},
      {"<", 2, BuiltinId::LessThan},
      {">", 2, BuiltinId::GreaterThan},
      {"=<", 2, BuiltinId::LessEq},
      {">=", 2, BuiltinId::GreaterEq},
      {"=:=", 2, BuiltinId::ArithEq},
      {"=\\=", 2, BuiltinId::ArithNeq},
      {"==", 2, BuiltinId::StructEq},
      {"\\==", 2, BuiltinId::StructNeq},
      {"var", 1, BuiltinId::Var},
      {"nonvar", 1, BuiltinId::NonVar},
      {"atom", 1, BuiltinId::Atom},
      {"integer", 1, BuiltinId::Integer},
      {"atomic", 1, BuiltinId::Atomic},
      {"compound", 1, BuiltinId::Compound},
      {"ground", 1, BuiltinId::Ground},
      {"indep", 2, BuiltinId::Indep},
      {"true", 0, BuiltinId::True},
      {"fail", 0, BuiltinId::Fail},
      {"false", 0, BuiltinId::Fail},
      {"write", 1, BuiltinId::Write},
      {"nl", 0, BuiltinId::Nl},
      {"functor", 3, BuiltinId::Functor},
      {"arg", 3, BuiltinId::Arg},
      {"@<", 2, BuiltinId::TermLt},
      {"@=<", 2, BuiltinId::TermLe},
      {"@>", 2, BuiltinId::TermGt},
      {"@>=", 2, BuiltinId::TermGe},
      {"compare", 3, BuiltinId::Compare3},
      {"=..", 2, BuiltinId::Univ},
      {"copy_term", 2, BuiltinId::CopyTerm},
      // call/1 is deliberately absent: it compiles as a regular call to
      // the predicate 'call'/1, whose single-instruction stub the
      // compiler emits (meta-call must preserve the continuation
      // register, which an inline builtin cannot).
  };
  for (const Key& k : table) {
    if (arity == k.a && name == k.n) {
      out = k.id;
      return true;
    }
  }
  return false;
}

}  // namespace rapwam
