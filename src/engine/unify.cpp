// General unification with an explicit in-memory PDL (push-down list),
// as in the WAM. Binding direction follows the usual safety rules:
// stack variables are bound towards heap variables, younger variables
// towards older ones.
#include "engine/machine.h"

namespace rapwam {

namespace {
bool is_stack_ref(const Layout& l, u64 addr) { return l.area_of(addr) != Area::Heap; }
}  // namespace

bool Machine::unify(Worker& w, u64 c1, u64 c2) {
  u64 pdl_start = w.pdl;
  auto push_pair = [&](u64 a, u64 b) {
    if (w.pdl + 2 > w.pdl_limit) fail("PDL overflow on PE " + std::to_string(w.pe));
    wr(w, w.pdl, a, ObjClass::PdlEntry);
    wr(w, w.pdl + 1, b, ObjClass::PdlEntry);
    w.pdl += 2;
  };

  push_pair(c1, c2);
  u64 pops = 0;
  while (w.pdl > pdl_start) {
    if ((++pops & 1023) == 0) [[unlikely]] walk_checkpoint(pops);
    w.pdl -= 2;
    u64 a = rd(w, w.pdl, ObjClass::PdlEntry);
    u64 b = rd(w, w.pdl + 1, ObjClass::PdlEntry);
    a = deref(w, a);
    b = deref(w, b);
    if (a == b) continue;

    Tag ta = cell_tag(a);
    Tag tb = cell_tag(b);

    if (ta == Tag::Ref && tb == Tag::Ref) {
      u64 aa = cell_val(a), ab = cell_val(b);
      bool sa = is_stack_ref(*layout_, aa), sb = is_stack_ref(*layout_, ab);
      if (sa == sb) {
        // Same kind: bind the younger (higher address) to the older.
        if (aa > ab) bind(w, a, b); else bind(w, b, a);
      } else if (sa) {
        bind(w, a, b);  // stack -> heap
      } else {
        bind(w, b, a);
      }
      continue;
    }
    if (ta == Tag::Ref) { bind(w, a, b); continue; }
    if (tb == Tag::Ref) { bind(w, b, a); continue; }

    if (ta != tb) { w.pdl = pdl_start; return false; }
    switch (ta) {
      case Tag::Con:
      case Tag::Int:
        w.pdl = pdl_start;
        return false;  // equal cells were handled above
      case Tag::Lis: {
        u64 pa = cell_val(a), pb = cell_val(b);
        push_pair(rd(w, pa, ObjClass::HeapTerm), rd(w, pb, ObjClass::HeapTerm));
        push_pair(rd(w, pa + 1, ObjClass::HeapTerm), rd(w, pb + 1, ObjClass::HeapTerm));
        break;
      }
      case Tag::Str: {
        u64 pa = cell_val(a), pb = cell_val(b);
        u64 fa = rd(w, pa, ObjClass::HeapTerm);
        u64 fb = rd(w, pb, ObjClass::HeapTerm);
        if (fa != fb) { w.pdl = pdl_start; return false; }
        u32 n = fun_arity(fa);
        for (u32 i = 1; i <= n; ++i)
          push_pair(rd(w, pa + i, ObjClass::HeapTerm), rd(w, pb + i, ObjClass::HeapTerm));
        break;
      }
      default:
        w.pdl = pdl_start;
        return false;
    }
  }
  return true;
}

// A term walk (unification, ground/1, indep/2, ==, compare/3,
// copy_term/2) runs inside one instruction, so the cycle loop's
// deadline, step-budget and watchdog checks never see it. On a cyclic
// term (X = f(X)) a walk never ends, so every walk makes the same
// checks itself every 1024 steps, counting its steps. The count is
// neither a RunStats field nor a memory reference: traces and stats are
// unchanged.
void Machine::walk_checkpoint(u64 steps) {
  if (cancel_) cancel_->checkpoint();
  if (cfg_.limits.max_steps && steps >= cfg_.limits.max_steps)
    throw ResourceExhaustedError(
        "steps", "resource_exhausted: step budget tripped after " +
                     std::to_string(steps) + " steps of one term walk (max_steps=" +
                     std::to_string(cfg_.limits.max_steps) + ")");
  if (steps > cfg_.max_cycles)
    fail("cycle watchdog exceeded (" + std::to_string(cfg_.max_cycles) + ")");
}

}  // namespace rapwam
