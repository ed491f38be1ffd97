// Inline predicates. Arguments arrive in A registers (X[1..arity]).
// Call1 transfers control like a WAM call instruction.
#include "engine/machine.h"

#include <unordered_set>

namespace rapwam {

using namespace frames;

/// Visits the unbound variables of the term at `cell`, calling
/// `on_var(address)` for each until it returns false (then returns
/// false). Cells are read in the order ground/1, indep/2 and the
/// compiled CGE checks have always read them: an explicit stack, list
/// head before tail and arguments in order when pushed.
template <typename OnVar>
bool Machine::each_var(Worker& w, u64 cell, OnVar on_var) {
  std::vector<u64> stack{cell};
  for (u64 steps = 1; !stack.empty(); ++steps) {
    if ((steps & 1023) == 0) [[unlikely]] walk_checkpoint(steps);
    u64 c = deref(w, stack.back());
    stack.pop_back();
    switch (cell_tag(c)) {
      case Tag::Ref:
        if (!on_var(cell_val(c))) return false;
        break;
      case Tag::Lis: {
        u64 p = cell_val(c);
        stack.push_back(rd(w, p, ObjClass::HeapTerm));
        stack.push_back(rd(w, p + 1, ObjClass::HeapTerm));
        break;
      }
      case Tag::Str: {
        u64 p = cell_val(c);
        u64 f = rd(w, p, ObjClass::HeapTerm);
        for (u32 i = 1; i <= fun_arity(f); ++i)
          stack.push_back(rd(w, p + i, ObjClass::HeapTerm));
        break;
      }
      default:
        break;
    }
  }
  return true;
}

bool Machine::ground_cell(Worker& w, u64 cell) {
  return each_var(w, cell, [](u64) { return false; });
}

bool Machine::indep_cells(Worker& w, u64 a, u64 b) {
  // indep(A, B): A and B share no unbound variable.
  std::unordered_set<u64> va;
  each_var(w, a, [&](u64 v) {
    va.insert(v);
    return true;
  });
  return va.empty() || each_var(w, b, [&](u64 v) { return va.count(v) == 0; });
}

// struct_eq and term_compare walk depth first, left to right, with the
// reads and early exits of the recursive definitions, but on a stack of
// ArgRuns: deep lists and cyclic terms cannot overflow the C++ stack,
// and a cyclic walk stops at a walk checkpoint. Each argument pair is
// read b's word first, the order GCC gave the recursive calls'
// arguments, so traces are unchanged.
namespace {
struct ArgRun { u64 a, b; u32 left; };  ///< `left` pairs at `a`, `b` to go
}  // namespace

bool Machine::struct_eq(Worker& w, u64 a, u64 b) {
  std::vector<ArgRun> todo;
  for (u64 steps = 1;; ++steps) {
    if ((steps & 1023) == 0) [[unlikely]] walk_checkpoint(steps);
    a = deref(w, a);
    b = deref(w, b);
    if (a != b) {
      if (cell_tag(a) != cell_tag(b)) return false;
      u64 pa = cell_val(a), pb = cell_val(b);
      switch (cell_tag(a)) {
        case Tag::Lis:
          todo.push_back({pa, pb, 2});
          break;
        case Tag::Str: {
          u64 fa = rd(w, pa, ObjClass::HeapTerm);
          if (fa != rd(w, pb, ObjClass::HeapTerm)) return false;
          if (fun_arity(fa) != 0) todo.push_back({pa + 1, pb + 1, fun_arity(fa)});
          break;
        }
        default:
          return false;  // unequal Con/Int cells, or distinct unbound vars
      }
    }
    if (todo.empty()) return true;
    ArgRun& next = todo.back();
    b = rd(w, next.b++, ObjClass::HeapTerm);
    a = rd(w, next.a++, ObjClass::HeapTerm);
    if (--next.left == 0) todo.pop_back();
  }
}

/// Standard order of terms: Var < Int < Atom < Compound; compounds by
/// arity, then functor name, then args left to right. Returns -1/0/+1.
int Machine::term_compare(Worker& w, u64 a, u64 b) {
  auto rank = [](Tag t) {
    switch (t) {
      case Tag::Ref: return 0;
      case Tag::Int: return 1;
      case Tag::Con: return 2;
      default: return 3;  // Lis/Str
    }
  };
  std::vector<ArgRun> todo;
  for (u64 steps = 1;; ++steps) {
    if ((steps & 1023) == 0) [[unlikely]] walk_checkpoint(steps);
    a = deref(w, a);
    b = deref(w, b);
    int ra = rank(cell_tag(a)), rb = rank(cell_tag(b));
    if (ra != rb) return ra < rb ? -1 : 1;
    switch (cell_tag(a)) {
      case Tag::Ref: {
        u64 va = cell_val(a), vb = cell_val(b);
        if (va != vb) return va < vb ? -1 : 1;
        break;
      }
      case Tag::Int: {
        i64 va = int_val(a), vb = int_val(b);
        if (va != vb) return va < vb ? -1 : 1;
        break;
      }
      case Tag::Con: {
        if (a == b) break;
        const std::string& na = prog_.atoms().name(static_cast<u32>(cell_val(a)));
        const std::string& nb = prog_.atoms().name(static_cast<u32>(cell_val(b)));
        return na < nb ? -1 : 1;
      }
      default: {
        // Read functor cells ('.'/2 for list cells).
        u32 fa, aa, fb, ab;
        u64 pa = cell_val(a), pb = cell_val(b);
        if (cell_tag(a) == Tag::Lis) {
          fa = prog_.atoms().intern(".");
          aa = 2;
        } else {
          u64 f = rd(w, pa, ObjClass::HeapTerm);
          fa = fun_name(f);
          aa = fun_arity(f);
          pa += 1;
        }
        if (cell_tag(b) == Tag::Lis) {
          fb = prog_.atoms().intern(".");
          ab = 2;
        } else {
          u64 f = rd(w, pb, ObjClass::HeapTerm);
          fb = fun_name(f);
          ab = fun_arity(f);
          pb += 1;
        }
        if (aa != ab) return aa < ab ? -1 : 1;
        if (fa != fb) {
          const std::string& na = prog_.atoms().name(fa);
          const std::string& nb = prog_.atoms().name(fb);
          return na < nb ? -1 : 1;
        }
        if (aa != 0) todo.push_back({pa, pb, aa});
        break;
      }
    }
    if (todo.empty()) return 0;
    ArgRun& next = todo.back();
    b = rd(w, next.b++, ObjClass::HeapTerm);
    a = rd(w, next.a++, ObjClass::HeapTerm);
    if (--next.left == 0) todo.pop_back();
  }
}

/// Copies a term to the top of the heap with fresh variables
/// (copy_term/2). The varmap keeps sharing between occurrences. As in
/// the recursive definition, a compound's functor is read first, its
/// arguments are copied left to right, each completely, and only then
/// are its own cells pushed — but on an explicit stack of open
/// compounds, with their finished argument copies in `done`.
u64 Machine::copy_term_cell(Worker& w, u64 cell,
                            std::unordered_map<u64, u64>& varmap) {
  struct Open {
    u64 args;     ///< address of the first argument word
    u64 functor;  ///< the functor cell; 0 for a list cell
    u32 arity, next;
  };
  std::vector<Open> open;
  std::vector<u64> done;
  for (u64 steps = 1;; ++steps) {
    if ((steps & 1023) == 0) [[unlikely]] walk_checkpoint(steps);
    u64 d = deref(w, cell);
    switch (cell_tag(d)) {
      case Tag::Ref: {
        u64 addr = cell_val(d);
        auto it = varmap.find(addr);
        if (it != varmap.end()) {
          done.push_back(make_ref(it->second));
          break;
        }
        u64 na = w.h;
        heap_push(w, make_ref(na));
        varmap.emplace(addr, na);
        done.push_back(make_ref(na));
        break;
      }
      case Tag::Con:
      case Tag::Int:
        done.push_back(d);
        break;
      case Tag::Lis:
        open.push_back({cell_val(d), 0, 2, 0});
        break;
      case Tag::Str: {
        u64 p = cell_val(d);
        u64 f = rd(w, p, ObjClass::HeapTerm);
        open.push_back({p + 1, f, fun_arity(f), 0});
        break;
      }
      default:
        RW_CHECK(false, "copy of raw cell");
    }
    // Close every compound whose arguments are all copied.
    while (!open.empty() && open.back().next == open.back().arity) {
      Open c = open.back();
      open.pop_back();
      u64 na = w.h;
      if (c.functor) heap_push(w, c.functor);
      for (std::size_t i = done.size() - c.arity; i < done.size(); ++i)
        heap_push(w, done[i]);
      done.resize(done.size() - c.arity);
      done.push_back(c.functor ? make_str(na) : make_lis(na));
    }
    if (open.empty()) return done.back();
    // Each still-open compound has an argument left, so it will push at
    // least two cells: if they cannot all fit, the copy must overflow
    // the heap. Say so now, before a cyclic term grows `open` unbounded.
    if (2 * open.size() > w.heap_limit - w.h)
      throw ResourceExhaustedError(
          "heap", "resource_exhausted: heap overflow on PE " + std::to_string(w.pe));
    cell = rd(w, open.back().args + open.back().next++, ObjClass::HeapTerm);
  }
}

Machine::BResult Machine::exec_builtin(Worker& w, BuiltinId id, int arity) {
  (void)arity;
  auto ok = [](bool b) { return b ? BResult::True : BResult::False; };
  switch (id) {
    case BuiltinId::Unify:
      return ok(unify(w, w.x[1], w.x[2]));
    case BuiltinId::Is: {
      auto v = eval_arith(w, w.x[2]);
      if (!v) return BResult::False;
      return ok(unify(w, w.x[1], make_int(*v)));
    }
    case BuiltinId::LessThan:
    case BuiltinId::GreaterThan:
    case BuiltinId::LessEq:
    case BuiltinId::GreaterEq:
    case BuiltinId::ArithEq:
    case BuiltinId::ArithNeq: {
      auto a = eval_arith(w, w.x[1]);
      auto b = eval_arith(w, w.x[2]);
      if (!a || !b) return BResult::False;
      switch (id) {
        case BuiltinId::LessThan: return ok(*a < *b);
        case BuiltinId::GreaterThan: return ok(*a > *b);
        case BuiltinId::LessEq: return ok(*a <= *b);
        case BuiltinId::GreaterEq: return ok(*a >= *b);
        case BuiltinId::ArithEq: return ok(*a == *b);
        default: return ok(*a != *b);
      }
    }
    case BuiltinId::StructEq:
      return ok(struct_eq(w, w.x[1], w.x[2]));
    case BuiltinId::StructNeq:
      return ok(!struct_eq(w, w.x[1], w.x[2]));
    case BuiltinId::Var:
      return ok(cell_tag(deref(w, w.x[1])) == Tag::Ref);
    case BuiltinId::NonVar:
      return ok(cell_tag(deref(w, w.x[1])) != Tag::Ref);
    case BuiltinId::Atom:
      return ok(cell_tag(deref(w, w.x[1])) == Tag::Con);
    case BuiltinId::Integer:
      return ok(cell_tag(deref(w, w.x[1])) == Tag::Int);
    case BuiltinId::Atomic: {
      Tag t = cell_tag(deref(w, w.x[1]));
      return ok(t == Tag::Con || t == Tag::Int);
    }
    case BuiltinId::Compound: {
      Tag t = cell_tag(deref(w, w.x[1]));
      return ok(t == Tag::Str || t == Tag::Lis);
    }
    case BuiltinId::Ground:
      return ok(ground_cell(w, w.x[1]));
    case BuiltinId::Indep:
      return ok(indep_cells(w, w.x[1], w.x[2]));
    case BuiltinId::True:
      return BResult::True;
    case BuiltinId::Fail:
      return BResult::False;
    case BuiltinId::Write:
      out_ << stringify(deref(w, w.x[1]));
      return BResult::True;
    case BuiltinId::Nl:
      out_ << "\n";
      return BResult::True;
    case BuiltinId::Functor: {
      u64 t = deref(w, w.x[1]);
      switch (cell_tag(t)) {
        case Tag::Con:
          return ok(unify(w, w.x[2], t) && unify(w, w.x[3], make_int(0)));
        case Tag::Int:
          return ok(unify(w, w.x[2], t) && unify(w, w.x[3], make_int(0)));
        case Tag::Lis:
          return ok(unify(w, w.x[2], make_con(prog_.atoms().intern("."))) &&
                    unify(w, w.x[3], make_int(2)));
        case Tag::Str: {
          u64 f = rd(w, cell_val(t), ObjClass::HeapTerm);
          return ok(unify(w, w.x[2], make_con(fun_name(f))) &&
                    unify(w, w.x[3], make_int(fun_arity(f))));
        }
        case Tag::Ref: {
          // Construction mode: functor(X, Name, Arity).
          u64 name = deref(w, w.x[2]);
          u64 ar = deref(w, w.x[3]);
          if (cell_tag(ar) != Tag::Int) return BResult::False;
          i64 n = int_val(ar);
          if (n == 0) {
            if (cell_tag(name) == Tag::Con || cell_tag(name) == Tag::Int)
              return ok(unify(w, t, name));
            return BResult::False;
          }
          if (cell_tag(name) != Tag::Con || n < 0 || n > 0xFFFF)
            return BResult::False;
          u64 addr = heap_push(w, make_fun(static_cast<u32>(cell_val(name)),
                                           static_cast<u32>(n)));
          for (i64 i = 0; i < n; ++i) {
            u64 va = w.h;
            heap_push(w, make_ref(va));
          }
          return ok(unify(w, t, make_str(addr)));
        }
        default:
          return BResult::False;
      }
    }
    case BuiltinId::Arg: {
      u64 n = deref(w, w.x[1]);
      u64 t = deref(w, w.x[2]);
      if (cell_tag(n) != Tag::Int) return BResult::False;
      i64 i = int_val(n);
      if (cell_tag(t) == Tag::Lis) {
        if (i < 1 || i > 2) return BResult::False;
        return ok(unify(w, w.x[3],
                        rd(w, cell_val(t) + static_cast<u64>(i) - 1, ObjClass::HeapTerm)));
      }
      if (cell_tag(t) != Tag::Str) return BResult::False;
      u64 p = cell_val(t);
      u64 f = rd(w, p, ObjClass::HeapTerm);
      if (i < 1 || i > fun_arity(f)) return BResult::False;
      return ok(unify(w, w.x[3], rd(w, p + static_cast<u64>(i), ObjClass::HeapTerm)));
    }
    case BuiltinId::Call1: {
      u64 g = deref(w, w.x[1]);
      PredId pred;
      if (cell_tag(g) == Tag::Con) {
        pred = PredId{static_cast<u32>(cell_val(g)), 0};
      } else if (cell_tag(g) == Tag::Str) {
        u64 p = cell_val(g);
        u64 f = rd(w, p, ObjClass::HeapTerm);
        pred = PredId{fun_name(f), fun_arity(f)};
        for (u32 i = 1; i <= pred.arity; ++i)
          w.x[i] = rd(w, p + i, ObjClass::HeapTerm);
      } else if (cell_tag(g) == Tag::Lis) {
        return BResult::False;
      } else {
        fail("call/1: goal is not callable");
      }
      // Inline predicates may be meta-called; on success return to the
      // continuation (the stub is the whole body of call/1).
      BuiltinId bid;
      if (lookup_builtin(prog_.atoms().name(pred.name), pred.arity, bid)) {
        BResult r = exec_builtin(w, bid, static_cast<int>(pred.arity));
        if (r == BResult::True) {
          w.p = w.cp;
          return BResult::Transfer;
        }
        return r;
      }
      // User predicate: tail-transfer, keeping CP (the stub was entered
      // via a normal call/execute, so CP already holds the caller's
      // continuation).
      i32 pi = code_->find_proc(pred);
      if (pi < 0 || code_->proc(pi).entry < 0) return BResult::False;
      w.b0 = w.b;
      w.p = code_->proc(pi).entry;
      return BResult::Transfer;
    }
    case BuiltinId::TermLt:
      return ok(term_compare(w, w.x[1], w.x[2]) < 0);
    case BuiltinId::TermLe:
      return ok(term_compare(w, w.x[1], w.x[2]) <= 0);
    case BuiltinId::TermGt:
      return ok(term_compare(w, w.x[1], w.x[2]) > 0);
    case BuiltinId::TermGe:
      return ok(term_compare(w, w.x[1], w.x[2]) >= 0);
    case BuiltinId::Compare3: {
      int c = term_compare(w, w.x[2], w.x[3]);
      u32 atom = prog_.atoms().intern(c < 0 ? "<" : (c > 0 ? ">" : "="));
      return ok(unify(w, w.x[1], make_con(atom)));
    }
    case BuiltinId::Univ: {
      u64 t = deref(w, w.x[1]);
      if (cell_tag(t) != Tag::Ref) {
        // Decompose: T =.. [Name|Args].
        std::vector<u64> items;
        switch (cell_tag(t)) {
          case Tag::Con:
          case Tag::Int:
            items.push_back(t);
            break;
          case Tag::Lis: {
            items.push_back(make_con(prog_.atoms().intern(".")));
            items.push_back(rd(w, cell_val(t), ObjClass::HeapTerm));
            items.push_back(rd(w, cell_val(t) + 1, ObjClass::HeapTerm));
            break;
          }
          case Tag::Str: {
            u64 p = cell_val(t);
            u64 f = rd(w, p, ObjClass::HeapTerm);
            items.push_back(make_con(fun_name(f)));
            for (u32 i = 1; i <= fun_arity(f); ++i)
              items.push_back(rd(w, p + i, ObjClass::HeapTerm));
            break;
          }
          default:
            return BResult::False;
        }
        // Build the list back-to-front on the heap.
        u64 tail = make_con(nil_atom_);
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
          u64 na = w.h;
          heap_push(w, *it);
          heap_push(w, tail);
          tail = make_lis(na);
        }
        return ok(unify(w, w.x[2], tail));
      }
      // Construct: T is built from the list [Name|Args].
      std::vector<u64> items;
      u64 cur = deref(w, w.x[2]);
      while (cell_tag(cur) == Tag::Lis) {
        u64 p = cell_val(cur);
        items.push_back(rd(w, p, ObjClass::HeapTerm));
        cur = deref(w, rd(w, p + 1, ObjClass::HeapTerm));
      }
      if (!(cell_tag(cur) == Tag::Con && cell_val(cur) == nil_atom_) || items.empty())
        return BResult::False;
      u64 head = deref(w, items[0]);
      if (items.size() == 1) {
        if (cell_tag(head) == Tag::Con || cell_tag(head) == Tag::Int)
          return ok(unify(w, t, head));
        return BResult::False;
      }
      if (cell_tag(head) != Tag::Con) return BResult::False;
      u32 name = static_cast<u32>(cell_val(head));
      u32 n = static_cast<u32>(items.size() - 1);
      if (name == prog_.atoms().intern(".") && n == 2) {
        u64 na = w.h;
        heap_push(w, items[1]);
        heap_push(w, items[2]);
        return ok(unify(w, t, make_lis(na)));
      }
      u64 na = w.h;
      heap_push(w, make_fun(name, n));
      for (u32 i = 1; i <= n; ++i) heap_push(w, items[i]);
      return ok(unify(w, t, make_str(na)));
    }
    case BuiltinId::CopyTerm: {
      std::unordered_map<u64, u64> varmap;
      u64 c = copy_term_cell(w, w.x[1], varmap);
      return ok(unify(w, w.x[2], c));
    }
    case BuiltinId::kCount:
      break;
  }
  RW_CHECK(false, "bad builtin id");
  return BResult::False;
}

}  // namespace rapwam
