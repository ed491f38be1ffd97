// Integer arithmetic evaluation for is/2 and the comparison builtins.
// Integers are the 56-bit signed range [kIntMin, kIntMax]; expressions
// are heap terms built from the functors compiler/instr.h maps to
// MathFn (+, -, *, //, /, mod, rem, min, max, abs, <<, >>, /\, \/ and
// unary -) plus unary + as the identity. math_apply is the one
// definition of their semantics, for compiled and interpreted
// arithmetic alike.
#include "engine/machine.h"

namespace rapwam {

std::optional<i64> Machine::eval_arith(Worker& w, u64 cell) {
  u64 d = deref(w, cell);
  switch (cell_tag(d)) {
    case Tag::Int:
      return int_val(d);
    case Tag::Ref:
      fail("arithmetic: expression is not sufficiently instantiated");
    case Tag::Con:
      return std::nullopt;  // atoms are not arithmetic
    case Tag::Str: {
      u64 p = cell_val(d);
      u64 f = rd(w, p, ObjClass::HeapTerm);
      const std::string& name = prog_.atoms().name(fun_name(f));
      u32 n = fun_arity(f);
      if (n == 1) {
        auto a = eval_arith(w, rd(w, p + 1, ObjClass::HeapTerm));
        if (!a) return std::nullopt;
        if (name == "+") return *a;
        std::optional<MathFn> fn = unary_math(name);
        if (!fn) return std::nullopt;
        return math_apply(*fn, *a, 0);
      }
      if (n == 2) {
        auto a = eval_arith(w, rd(w, p + 1, ObjClass::HeapTerm));
        auto b = eval_arith(w, rd(w, p + 2, ObjClass::HeapTerm));
        std::optional<MathFn> fn = binary_math(name);
        if (!a || !b || !fn) return std::nullopt;
        return math_apply(*fn, *a, *b);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

// `a` always comes from an Int cell, so it is in range and no division
// below can trap; `b` may be any i64 immediate. Every i64 intermediate
// is overflow-checked, and every result outside [kIntMin, kIntMax] is a
// structured error rather than a silent wrap at the cell width.
i64 Machine::math_apply(MathFn fn, i64 a, i64 b) {
  auto shift_count = [](i64 n) {
    if (n < 0 || n > 63)
      fail("arithmetic: shift count out of range: " + std::to_string(n));
    return n;
  };
  i64 r = 0;
  bool overflow = false;
  switch (fn) {
    case MathFn::Add: overflow = __builtin_add_overflow(a, b, &r); break;
    case MathFn::Sub: overflow = __builtin_sub_overflow(a, b, &r); break;
    case MathFn::Mul: overflow = __builtin_mul_overflow(a, b, &r); break;
    case MathFn::Div:
      if (b == 0) fail("arithmetic: division by zero");
      r = a / b;
      break;
    case MathFn::Mod:
      if (b == 0) fail("arithmetic: division by zero");
      r = a % b;
      if (r != 0 && ((r < 0) != (b < 0))) r += b;  // ISO mod sign
      break;
    case MathFn::Rem:
      if (b == 0) fail("arithmetic: division by zero");
      r = a % b;
      break;
    case MathFn::Min: r = a < b ? a : b; break;
    case MathFn::Max: r = a > b ? a : b; break;
    case MathFn::And: r = a & b; break;
    case MathFn::Or: r = a | b; break;
    case MathFn::Shl:
      overflow = __builtin_mul_overflow(a, u64(1) << shift_count(b), &r);
      break;
    case MathFn::Shr: r = a >> shift_count(b); break;
    case MathFn::Neg: r = -a; break;
    case MathFn::Abs: r = a < 0 ? -a : a; break;
    default: RW_CHECK(false, "bad math fn");
  }
  if (overflow || r < kIntMin || r > kIntMax) [[unlikely]]
    fail("arithmetic: integer overflow");
  return r;
}

}  // namespace rapwam
