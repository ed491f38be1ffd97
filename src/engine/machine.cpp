// Machine top level: query lifecycle, the deterministic round-robin
// cycle loop, and the instruction dispatch.
#include "engine/machine.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace rapwam {

using namespace frames;

unsigned check_machine_pes(unsigned pes) {
  if (pes < 1 || pes > kMaxTracePes)
    fail("PE count " + std::to_string(pes) + " is outside 1.." +
         std::to_string(kMaxTracePes) + " (the trace format's PE-id range)");
  return pes;
}

Machine::Machine(Program& prog, MachineConfig cfg) : prog_(prog), cfg_(std::move(cfg)) {
  check_machine_pes(cfg_.num_pes);
  nil_atom_ = prog_.atoms().intern("[]");
}

Machine::~Machine() = default;

RunResult Machine::solve(const std::string& goal_text, TraceSink* sink,
                         const CancelToken* cancel) {
  return solve_term(prog_.parse_goal(goal_text), sink, cancel);
}

RunResult Machine::solve_term(const Term* goal, TraceSink* sink,
                              const CancelToken* cancel) {
  cancel_ = cancel;
  // A plain predicate call runs directly: its arguments (which may be
  // large data terms) are built straight onto PE0's heap. Control
  // constructs and builtins are wrapped in a fresh driver predicate
  // over their variables and compiled. Compilation is fast, so each
  // solve recompiles.
  Interner& atoms = prog_.atoms();
  auto is_control = [&](const Term* t) {
    if (t->is_atom())
      return atoms.name(t->name) == "!" || atoms.name(t->name) == "true";
    if (!t->is_struct()) return true;  // vars/ints are not plain calls
    const std::string& n = atoms.name(t->name);
    return (t->arity() == 2 && (n == "," || n == ";" || n == "->" || n == "&" ||
                                n == "|")) ||
           (t->arity() == 1 && n == "\\+");
  };
  BuiltinId bid;
  bool plain = (goal->is_atom() || goal->is_struct()) && !is_control(goal) &&
               !lookup_builtin(atoms.name(goal->name),
                               static_cast<u32>(goal->arity()), bid);

  const Term* entry_goal = goal;
  if (!plain) {
    std::vector<const Term*> vars;
    TermStore::collect_vars(goal, vars);
    TermStore& st = prog_.terms();
    std::string qname = prog_.fresh_name("$q");
    const Term* head = vars.empty()
                           ? st.mk_atom(qname)
                           : st.mk_struct(qname, std::vector<const Term*>(vars));
    prog_.add_clause(head, goal);
    entry_goal = head;
  }
  CompileOptions copts;
  copts.strip_cge = cfg_.strip_cge;
  code_ = compile_program(prog_, copts);
  halt_addr_ = code_->emit({Op::HaltSuccess, 0, 0, 0, 0});
  return run_query(entry_goal, sink);
}

void Machine::reset(TraceSink* sink) {
  layout_ = std::make_unique<Layout>(cfg_.num_pes, cfg_.sizes);
  bus_ = std::make_unique<MemBus>(*layout_);
  bus_->set_sink(sink);
  workers_.assign(cfg_.num_pes, Worker{});
  for (unsigned pe = 0; pe < cfg_.num_pes; ++pe) {
    Worker& w = workers_[pe];
    w.pe = static_cast<u8>(pe);
    w.heap_base = layout_->base(pe, Area::Heap);
    w.heap_limit = layout_->limit(pe, Area::Heap);
    w.local_base = layout_->base(pe, Area::Local);
    w.local_limit = layout_->limit(pe, Area::Local);
    w.control_base = layout_->base(pe, Area::Control);
    w.control_limit = layout_->limit(pe, Area::Control);
    w.trail_base = layout_->base(pe, Area::Trail);
    w.trail_limit = layout_->limit(pe, Area::Trail);
    w.pdl_base = layout_->base(pe, Area::Pdl);
    w.pdl_limit = layout_->limit(pe, Area::Pdl);
    w.goal_base = layout_->base(pe, Area::GoalStack);
    w.goal_limit = layout_->limit(pe, Area::GoalStack);
    w.msg_base = layout_->base(pe, Area::MsgBuffer);
    w.msg_limit = layout_->limit(pe, Area::MsgBuffer);
    // Resource budgets: lower the cached per-PE limits so every
    // existing overflow check enforces the cap with zero added cost.
    const ResourceLimits& lim = cfg_.limits;
    auto cap = [](u64& limit, u64 base, u64 words) {
      if (words) limit = std::min(limit, base + words);
    };
    cap(w.heap_limit, w.heap_base, lim.max_heap_words);
    cap(w.local_limit, w.local_base, lim.max_local_words);
    cap(w.control_limit, w.control_base, lim.max_control_words);
    cap(w.trail_limit, w.trail_base, lim.max_trail_words);
    w.h = w.heap_base;
    w.hb = w.heap_base;
    w.tr = w.trail_base;
    w.pdl = w.pdl_base;
    w.ctop = w.control_base;
    w.ctop_floor = w.control_base;
    w.b_ltop = w.local_base;
    w.state = Worker::St::Idle;
  }
  parked_ = 0;
  open_stacks_ = 0;
  stats_ = RunStats{};
  stats_.num_pes = cfg_.num_pes;
  heap_pushes_ = 0;
  out_.str("");
  done_ = false;
  query_failed_exhausted_ = false;
  query_vars_.clear();
  solutions_.clear();
}

/// Builds the AST term `t` on worker w's heap; returns the cell.
u64 Machine::build_term(Worker& w, const Term* t,
                        std::unordered_map<const Term*, u64>& varmap) {
  switch (t->tag) {
    case TermTag::Var: {
      auto it = varmap.find(t);
      if (it != varmap.end()) return make_ref(it->second);
      u64 addr = w.h;
      heap_push(w, make_ref(addr));
      varmap.emplace(t, addr);
      return make_ref(addr);
    }
    case TermTag::Atom:
      return make_con(t->name);
    case TermTag::Int:
      return make_int(t->ival);
    case TermTag::Struct: {
      std::vector<u64> argcells;
      argcells.reserve(t->arity());
      for (const Term* a : t->args) argcells.push_back(build_term(w, a, varmap));
      if (prog_.atoms().name(t->name) == "." && t->arity() == 2) {
        u64 addr = w.h;
        heap_push(w, argcells[0]);
        heap_push(w, argcells[1]);
        return make_lis(addr);
      }
      u64 addr = w.h;
      heap_push(w, make_fun(t->name, static_cast<u32>(t->arity())));
      for (u64 c : argcells) heap_push(w, c);
      return make_str(addr);
    }
  }
  RW_CHECK(false, "bad term tag");
  return 0;
}

std::string Machine::stringify(u64 cell, int depth) const {
  if (depth > 200) return "...";
  // Untraced dereference (post-run inspection).
  while (cell_tag(cell) == Tag::Ref) {
    u64 next = bus_->peek(cell_val(cell));
    if (next == cell) break;
    cell = next;
  }
  switch (cell_tag(cell)) {
    case Tag::Ref:
      return "_G" + std::to_string(cell_val(cell));
    case Tag::Con:
      return prog_.atoms().name(static_cast<u32>(cell_val(cell)));
    case Tag::Int:
      return std::to_string(int_val(cell));
    case Tag::Lis: {
      std::string out = "[";
      u64 cur = cell;
      bool first = true;
      while (cell_tag(cur) == Tag::Lis) {
        if (!first) out += ",";
        out += stringify(bus_->peek(cell_val(cur)), depth + 1);
        first = false;
        u64 tail = bus_->peek(cell_val(cur) + 1);
        while (cell_tag(tail) == Tag::Ref) {
          u64 next = bus_->peek(cell_val(tail));
          if (next == tail) break;
          tail = next;
        }
        cur = tail;
      }
      if (!(cell_tag(cur) == Tag::Con &&
            prog_.atoms().name(static_cast<u32>(cell_val(cur))) == "[]")) {
        out += "|" + stringify(cur, depth + 1);
      }
      return out + "]";
    }
    case Tag::Str: {
      u64 p = cell_val(cell);
      u64 f = bus_->peek(p);
      std::string out = prog_.atoms().name(fun_name(f)) + "(";
      for (u32 i = 1; i <= fun_arity(f); ++i) {
        if (i > 1) out += ",";
        out += stringify(bus_->peek(p + i), depth + 1);
      }
      return out + ")";
    }
    default:
      return "?raw";
  }
}

RunResult Machine::run_query(const Term* goal, TraceSink* sink) {
  reset(sink);
  Worker& w0 = workers_[0];
  w0.state = Worker::St::Running;  // build refs count as busy work

  // Build the argument terms on PE0's heap and load the A registers.
  std::unordered_map<const Term*, u64> varmap;
  std::vector<const Term*> vars;
  TermStore::collect_vars(goal, vars);
  for (std::size_t i = 0; i < goal->arity(); ++i)
    w0.x[i + 1] = build_term(w0, goal->args[i], varmap);
  for (const Term* v : vars) {
    const std::string& n = prog_.atoms().name(v->name);
    if (n != "_") query_vars_.emplace_back(n, varmap.at(v));
  }

  PredId pred{goal->name, static_cast<u32>(goal->arity())};
  i32 pi = code_->find_proc(pred);
  if (pi < 0 || code_->proc(pi).entry < 0)
    fail("undefined predicate in query: " + prog_.atoms().name(pred.name) + "/" +
         std::to_string(pred.arity));
  w0.p = code_->proc(pi).entry;
  w0.cp = halt_addr_;
  w0.b0 = 0;
  ++stats_.calls;  // the top-level call itself is one inference

  while (!done_) {
    ++stats_.cycles;
    if (stats_.cycles > cfg_.max_cycles)
      fail("cycle watchdog exceeded (" + std::to_string(cfg_.max_cycles) + ")");
    // Governance checkpoints. With no token, budgets, or faults these
    // are three always-false predictable branches per cycle, and no
    // stat or trace output changes — the bit-identity tests pin that.
    if (cancel_ && (stats_.cycles & 1023) == 0) [[unlikely]]
      cancel_->checkpoint();
    if (cfg_.limits.max_steps &&
        stats_.instructions >= cfg_.limits.max_steps) [[unlikely]]
      throw ResourceExhaustedError(
          "steps", "resource_exhausted: step budget tripped after " +
                       std::to_string(stats_.instructions) +
                       " instructions (max_steps=" +
                       std::to_string(cfg_.limits.max_steps) + ")");
    if (cfg_.faults.stall_every_cycles &&
        stats_.cycles % cfg_.faults.stall_every_cycles == 0) [[unlikely]]
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg_.faults.stall_ms));
    // Active PEs step in index order (docs/DESIGN.md §5), so a PE that
    // a step wakes above the stepping one still steps in this cycle.
    for (Worker& w : workers_) {
      if (w.parked_at != 0) continue;
      cur_pe_ = w.pe;
      step(w);
      if (done_) break;
    }
  }
  // Parked workers would have polled or probed up to the step that
  // ended the run.
  for (unsigned pe = 0; parked_ != 0; ++pe) wake(pe);

  bus_->finish();  // the trailing chunk, then the run's counters

  RunResult res;
  res.solutions = solutions_;
  res.success = !solutions_.empty();
  res.stats = stats_;
  res.stats.refs = bus_->counts();
  res.stats.solutions = solutions_.size();
  res.output = out_.str();
  for (const Worker& w : workers_) record_high_water(w);
  res.stats.high_water = stats_.high_water;
  return res;
}

void Machine::record_high_water(const Worker& w) {
  auto upd = [&](Area a, u64 used) {
    auto& hw = stats_.high_water[static_cast<std::size_t>(a)];
    hw = std::max(hw, used);
  };
  upd(Area::Heap, w.hw_heap);
  upd(Area::Local, w.hw_local);
  upd(Area::Control, w.hw_control);
  upd(Area::Trail, w.hw_trail);
}

i32 Machine::resolved_entry(const Proc& pr) const {
  // link_check() normally rejects unresolved predicates at compile
  // time; this is the engine-side backstop for code stores assembled
  // without it. A structured error naming the predicate — never a jump
  // through entry == -1.
  if (pr.entry < 0) [[unlikely]]
    fail("call to undefined predicate: " + prog_.atoms().name(pr.pred.name) +
         "/" + std::to_string(pr.pred.arity));
  return pr.entry;
}

void Machine::step(Worker& w) {
  // Running is the overwhelmingly common state: check it first instead
  // of round-tripping through the state jump table.
  if (w.state == Worker::St::Running) [[likely]] {
    exec(w);
    return;
  }
  switch (w.state) {
    case Worker::St::Halted:
    case Worker::St::Running:  // handled above
      return;
    case Worker::St::Waiting:
      ++stats_.wait_polls;
      if (quiet_wait_poll(w)) park(w);
      else exec_pwait(w);
      return;
    case Worker::St::Idle:
      try_steal(w);
      return;
  }
}

// --- instruction dispatch -------------------------------------------------
//
// On GNU-compatible compilers (GCC, Clang) the interpreter core uses
// computed-goto threaded dispatch: a per-opcode label table indexed by
// the Op value, giving every opcode its own indirect-branch target
// (the RW_CHECK guard deliberately keeps the switch's bounds check —
// a corrupt opcode must fail loudly, not jump wild). Elsewhere (or with
// -DRAPWAM_FORCE_SWITCH_DISPATCH, used to differential-test the two
// cores) it falls back to the plain switch. RW_OP expands to a label
// or a case accordingly; every opcode body ends in `return`, so the
// two forms are statement-for-statement identical.
#if defined(__GNUC__) && !defined(RAPWAM_FORCE_SWITCH_DISPATCH)
#define RAPWAM_THREADED_DISPATCH 1
#define RW_OP(name) lbl_##name
#else
#define RAPWAM_THREADED_DISPATCH 0
#define RW_OP(name) case Op::name
#endif

bool threaded_dispatch_enabled() { return RAPWAM_THREADED_DISPATCH != 0; }

void Machine::exec(Worker& w) {
  const Instr ins = code_->at(w.p);
  const i32 here = w.p;
  ++w.p;
  ++stats_.instructions;

  auto fail_if = [&](bool bad) {
    if (bad) backtrack(w);
  };
  auto env_y = [&](i32 y) { return w.e + kEnvY + static_cast<u64>(y); };

#if RAPWAM_THREADED_DISPATCH
  // One label per opcode, indexed by the Op value — the entries must
  // mirror enum Op in compiler/instr.h exactly (count pinned below).
  static const void* const kLabels[] = {
      &&lbl_Call, &&lbl_Execute, &&lbl_Proceed, &&lbl_Allocate,
      &&lbl_Deallocate, &&lbl_Jump, &&lbl_HaltSuccess, &&lbl_EndGoal,
      &&lbl_EndLocalGoal, &&lbl_FailAlways, &&lbl_TryMeElse, &&lbl_RetryMeElse,
      &&lbl_TrustMe, &&lbl_Try, &&lbl_Retry, &&lbl_Trust, &&lbl_SwitchOnTerm,
      &&lbl_SwitchOnConst, &&lbl_SwitchOnStruct, &&lbl_GetLevel, &&lbl_Cut,
      &&lbl_NeckCut, &&lbl_GetVariableX, &&lbl_GetVariableY, &&lbl_GetValueX,
      &&lbl_GetValueY, &&lbl_GetConstant, &&lbl_GetInteger, &&lbl_GetNil,
      &&lbl_GetStructure, &&lbl_GetList, &&lbl_PutVariableX, &&lbl_PutVariableY,
      &&lbl_PutValueX, &&lbl_PutValueY, &&lbl_PutUnsafeValue, &&lbl_PutConstant,
      &&lbl_PutInteger, &&lbl_PutNil, &&lbl_PutStructure, &&lbl_PutList,
      &&lbl_UnifyVariableX, &&lbl_UnifyVariableY, &&lbl_UnifyValueX,
      &&lbl_UnifyValueY, &&lbl_UnifyLocalValueX, &&lbl_UnifyLocalValueY,
      &&lbl_UnifyConstant, &&lbl_UnifyInteger, &&lbl_UnifyNil, &&lbl_UnifyVoid,
      &&lbl_MathLoad, &&lbl_MathRR, &&lbl_MathRI, &&lbl_MathCmp, &&lbl_Builtin,
      &&lbl_CheckGround, &&lbl_CheckIndep, &&lbl_PFrame, &&lbl_PGoal,
      &&lbl_PWait};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                    static_cast<std::size_t>(Op::kOpCount),
                "dispatch table out of sync with enum Op");
  RW_CHECK(static_cast<std::size_t>(ins.op) < static_cast<std::size_t>(Op::kOpCount),
           "bad opcode");
  goto *kLabels[static_cast<std::size_t>(ins.op)];
#else
  switch (ins.op) {
#endif
    RW_OP(Call): {
      const Proc& pr = code_->proc(ins.a);
      w.cp = w.p;
      w.b0 = w.b;
      w.p = resolved_entry(pr);
      ++stats_.calls;
      return;
    }
    RW_OP(Execute): {
      const Proc& pr = code_->proc(ins.a);
      w.b0 = w.b;
      w.p = resolved_entry(pr);
      ++stats_.calls;
      return;
    }
    RW_OP(Proceed):
      w.p = w.cp;
      return;
    RW_OP(Allocate):
      push_env(w, ins.a);
      return;
    RW_OP(Deallocate):
      pop_env(w);
      return;
    RW_OP(Jump):
      w.p = ins.a;
      return;
    RW_OP(HaltSuccess): {
      Solution sol;
      for (auto& [name, addr] : query_vars_)
        sol.bindings.emplace_back(name, stringify(bus_->peek(addr)));
      solutions_.push_back(std::move(sol));
      if (solutions_.size() >= cfg_.max_solutions) {
        done_ = true;
        w.state = Worker::St::Halted;
      } else {
        backtrack(w);  // search for the next solution
      }
      return;
    }
    RW_OP(EndGoal):
      end_goal(w);
      return;
    RW_OP(EndLocalGoal):
      end_local_goal(w);
      return;
    RW_OP(FailAlways):
      backtrack(w);
      return;
    RW_OP(TryMeElse):
      push_choice(w, ins.b, ins.a);
      return;
    RW_OP(RetryMeElse):
      wr(w, w.b + kCpBP, make_raw(static_cast<u64>(ins.a)), ObjClass::ChoicePoint);
      return;
    RW_OP(TrustMe):
      pop_choice(w);
      return;
    RW_OP(Try):
      push_choice(w, ins.b, w.p);  // alternative: the following retry/trust
      w.p = ins.a;
      return;
    RW_OP(Retry):
      wr(w, w.b + kCpBP, make_raw(static_cast<u64>(w.p)), ObjClass::ChoicePoint);
      w.p = ins.a;
      return;
    RW_OP(Trust):
      pop_choice(w);
      w.p = ins.a;
      return;
    RW_OP(SwitchOnTerm): {
      u64 d = deref(w, w.x[1]);
      i32 target;
      switch (cell_tag(d)) {
        case Tag::Ref: target = ins.a; break;
        case Tag::Con:
        case Tag::Int: target = ins.b; break;
        case Tag::Lis: target = ins.c; break;
        case Tag::Str: target = static_cast<i32>(ins.imm); break;
        default: target = kFailAddr; break;
      }
      if (target == kFailAddr) { backtrack(w); return; }
      w.p = target;
      return;
    }
    RW_OP(SwitchOnConst): {
      u64 d = deref(w, w.x[1]);
      u64 key = cell_tag(d) == Tag::Con
                    ? CodeStore::const_key_atom(static_cast<u32>(cell_val(d)))
                    : CodeStore::const_key_int(int_val(d));
      i32 target = code_->switch_lookup(ins.a, key);
      if (target == kFailAddr) target = ins.b;
      if (target == kFailAddr) { backtrack(w); return; }
      w.p = target;
      return;
    }
    RW_OP(SwitchOnStruct): {
      u64 d = deref(w, w.x[1]);
      u64 f = rd(w, cell_val(d), ObjClass::HeapTerm);
      i32 target = code_->switch_lookup(
          ins.a, CodeStore::struct_key(fun_name(f), fun_arity(f)));
      if (target == kFailAddr) target = ins.b;
      if (target == kFailAddr) { backtrack(w); return; }
      w.p = target;
      return;
    }
    RW_OP(GetLevel):
      wr(w, env_y(ins.a), make_raw(w.b0), ObjClass::EnvPermVar);
      return;
    RW_OP(Cut): {
      u64 v = rd(w, env_y(ins.a), ObjClass::EnvPermVar);
      do_cut(w, cell_val(v));
      return;
    }
    RW_OP(NeckCut):
      do_cut(w, w.b0);
      return;

    RW_OP(GetVariableX):
      w.x[static_cast<std::size_t>(ins.a)] = w.x[static_cast<std::size_t>(ins.b)];
      return;
    RW_OP(GetVariableY):
      wr(w, env_y(ins.a), w.x[static_cast<std::size_t>(ins.b)], ObjClass::EnvPermVar);
      return;
    RW_OP(GetValueX):
      fail_if(!unify(w, w.x[static_cast<std::size_t>(ins.a)],
                     w.x[static_cast<std::size_t>(ins.b)]));
      return;
    RW_OP(GetValueY): {
      u64 v = rd(w, env_y(ins.a), ObjClass::EnvPermVar);
      fail_if(!unify(w, v, w.x[static_cast<std::size_t>(ins.b)]));
      return;
    }
    RW_OP(GetConstant): {
      u64 d = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      if (cell_tag(d) == Tag::Ref) bind(w, d, make_con(static_cast<u32>(ins.a)));
      else fail_if(d != make_con(static_cast<u32>(ins.a)));
      return;
    }
    RW_OP(GetInteger): {
      u64 d = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      if (cell_tag(d) == Tag::Ref) bind(w, d, make_int(ins.imm));
      else fail_if(d != make_int(ins.imm));
      return;
    }
    RW_OP(GetNil): {
      u64 d = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      u64 nil = make_con(nil_atom_);
      if (cell_tag(d) == Tag::Ref) bind(w, d, nil);
      else fail_if(d != nil);
      return;
    }
    RW_OP(GetStructure): {
      u64 d = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      if (cell_tag(d) == Tag::Ref) {
        u64 addr = w.h;
        heap_push(w, make_fun(static_cast<u32>(ins.a), static_cast<u32>(ins.c)));
        bind(w, d, make_str(addr));
        w.write_mode = true;
      } else if (cell_tag(d) == Tag::Str) {
        u64 f = rd(w, cell_val(d), ObjClass::HeapTerm);
        if (f != make_fun(static_cast<u32>(ins.a), static_cast<u32>(ins.c))) {
          backtrack(w);
          return;
        }
        w.s = cell_val(d) + 1;
        w.write_mode = false;
      } else {
        backtrack(w);
      }
      return;
    }
    RW_OP(GetList): {
      u64 d = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      if (cell_tag(d) == Tag::Ref) {
        bind(w, d, make_lis(w.h));
        w.write_mode = true;
      } else if (cell_tag(d) == Tag::Lis) {
        w.s = cell_val(d);
        w.write_mode = false;
      } else {
        backtrack(w);
      }
      return;
    }

    RW_OP(PutVariableX): {
      u64 addr = w.h;
      heap_push(w, make_ref(addr));
      w.x[static_cast<std::size_t>(ins.a)] = make_ref(addr);
      w.x[static_cast<std::size_t>(ins.b)] = make_ref(addr);
      return;
    }
    RW_OP(PutVariableY): {
      u64 addr = env_y(ins.a);
      wr(w, addr, make_ref(addr), ObjClass::EnvPermVar);
      w.x[static_cast<std::size_t>(ins.b)] = make_ref(addr);
      return;
    }
    RW_OP(PutValueX):
      w.x[static_cast<std::size_t>(ins.b)] = w.x[static_cast<std::size_t>(ins.a)];
      return;
    RW_OP(PutValueY):
      w.x[static_cast<std::size_t>(ins.b)] = rd(w, env_y(ins.a), ObjClass::EnvPermVar);
      return;
    RW_OP(PutUnsafeValue): {
      u64 v = deref(w, rd(w, env_y(ins.a), ObjClass::EnvPermVar));
      if (cell_tag(v) == Tag::Ref) {
        u64 addr = cell_val(v);
        u64 ny = cell_val(rd(w, w.e + kEnvNY, ObjClass::EnvControl));
        if (addr >= w.e && addr < w.e + env_size(ny)) {
          // Globalise: the environment is about to be discarded.
          u64 ha = w.h;
          heap_push(w, make_ref(ha));
          bind(w, v, make_ref(ha));
          v = make_ref(ha);
        }
      }
      w.x[static_cast<std::size_t>(ins.b)] = v;
      return;
    }
    RW_OP(PutConstant):
      w.x[static_cast<std::size_t>(ins.b)] = make_con(static_cast<u32>(ins.a));
      return;
    RW_OP(PutInteger):
      w.x[static_cast<std::size_t>(ins.b)] = make_int(ins.imm);
      return;
    RW_OP(PutNil):
      w.x[static_cast<std::size_t>(ins.b)] = make_con(nil_atom_);
      return;
    RW_OP(PutStructure): {
      u64 addr = w.h;
      heap_push(w, make_fun(static_cast<u32>(ins.a), static_cast<u32>(ins.c)));
      w.x[static_cast<std::size_t>(ins.b)] = make_str(addr);
      w.write_mode = true;
      return;
    }
    RW_OP(PutList):
      w.x[static_cast<std::size_t>(ins.b)] = make_lis(w.h);
      w.write_mode = true;
      return;

    RW_OP(UnifyVariableX):
      if (w.write_mode) {
        u64 addr = w.h;
        heap_push(w, make_ref(addr));
        w.x[static_cast<std::size_t>(ins.a)] = make_ref(addr);
      } else {
        w.x[static_cast<std::size_t>(ins.a)] = rd(w, w.s++, ObjClass::HeapTerm);
      }
      return;
    RW_OP(UnifyVariableY):
      if (w.write_mode) {
        u64 addr = w.h;
        heap_push(w, make_ref(addr));
        wr(w, env_y(ins.a), make_ref(addr), ObjClass::EnvPermVar);
      } else {
        wr(w, env_y(ins.a), rd(w, w.s++, ObjClass::HeapTerm), ObjClass::EnvPermVar);
      }
      return;
    RW_OP(UnifyValueX):
      if (w.write_mode) heap_push(w, w.x[static_cast<std::size_t>(ins.a)]);
      else fail_if(!unify(w, w.x[static_cast<std::size_t>(ins.a)],
                          rd(w, w.s++, ObjClass::HeapTerm)));
      return;
    RW_OP(UnifyValueY): {
      u64 v = rd(w, env_y(ins.a), ObjClass::EnvPermVar);
      if (w.write_mode) heap_push(w, v);
      else fail_if(!unify(w, v, rd(w, w.s++, ObjClass::HeapTerm)));
      return;
    }
    RW_OP(UnifyLocalValueX): {
      if (!w.write_mode) {
        fail_if(!unify(w, w.x[static_cast<std::size_t>(ins.a)],
                       rd(w, w.s++, ObjClass::HeapTerm)));
        return;
      }
      u64 v = deref(w, w.x[static_cast<std::size_t>(ins.a)]);
      if (cell_tag(v) == Tag::Ref &&
          layout_->area_of(cell_val(v)) != Area::Heap) {
        // Unbound stack variable: globalise before placing in a heap term.
        u64 ha = w.h;
        heap_push(w, make_ref(ha));
        bind(w, v, make_ref(ha));
        w.x[static_cast<std::size_t>(ins.a)] = make_ref(ha);
      } else {
        heap_push(w, v);
        w.x[static_cast<std::size_t>(ins.a)] = v;
      }
      return;
    }
    RW_OP(UnifyLocalValueY): {
      u64 raw = rd(w, env_y(ins.a), ObjClass::EnvPermVar);
      if (!w.write_mode) {
        fail_if(!unify(w, raw, rd(w, w.s++, ObjClass::HeapTerm)));
        return;
      }
      u64 v = deref(w, raw);
      if (cell_tag(v) == Tag::Ref &&
          layout_->area_of(cell_val(v)) != Area::Heap) {
        u64 ha = w.h;
        heap_push(w, make_ref(ha));
        bind(w, v, make_ref(ha));
      } else {
        heap_push(w, v);
      }
      return;
    }
    RW_OP(UnifyConstant): {
      u64 c = make_con(static_cast<u32>(ins.a));
      if (w.write_mode) { heap_push(w, c); return; }
      u64 d = deref(w, rd(w, w.s++, ObjClass::HeapTerm));
      if (cell_tag(d) == Tag::Ref) bind(w, d, c);
      else fail_if(d != c);
      return;
    }
    RW_OP(UnifyInteger): {
      u64 c = make_int(ins.imm);
      if (w.write_mode) { heap_push(w, c); return; }
      u64 d = deref(w, rd(w, w.s++, ObjClass::HeapTerm));
      if (cell_tag(d) == Tag::Ref) bind(w, d, c);
      else fail_if(d != c);
      return;
    }
    RW_OP(UnifyNil): {
      u64 c = make_con(nil_atom_);
      if (w.write_mode) { heap_push(w, c); return; }
      u64 d = deref(w, rd(w, w.s++, ObjClass::HeapTerm));
      if (cell_tag(d) == Tag::Ref) bind(w, d, c);
      else fail_if(d != c);
      return;
    }
    RW_OP(UnifyVoid):
      if (w.write_mode) {
        for (i32 i = 0; i < ins.a; ++i) {
          u64 addr = w.h;
          heap_push(w, make_ref(addr));
        }
      } else {
        w.s += static_cast<u64>(ins.a);
      }
      return;

    RW_OP(MathLoad): {
      u64 v = deref(w, w.x[static_cast<std::size_t>(ins.b)]);
      if (cell_tag(v) == Tag::Int) {
        w.x[static_cast<std::size_t>(ins.a)] = v;
        return;
      }
      if (cell_tag(v) == Tag::Ref)
        fail("arithmetic: expression is not sufficiently instantiated");
      if (cell_tag(v) == Tag::Str) {
        // Meta-arithmetic: the variable is bound to an expression term
        // (e.g. E = 1+2, X is E). Evaluate it the interpreted way.
        auto r = eval_arith(w, v);
        if (r) {
          w.x[static_cast<std::size_t>(ins.a)] = make_int(*r);
          return;
        }
      }
      backtrack(w);  // atoms / non-arithmetic compounds are not numbers
      return;
    }
    RW_OP(MathRR): {
      i64 a = int_val(w.x[static_cast<std::size_t>(ins.c)]);
      i64 b = int_val(w.x[static_cast<std::size_t>(ins.imm)]);
      w.x[static_cast<std::size_t>(ins.b)] =
          make_int(math_apply(static_cast<MathFn>(ins.a), a, b));
      return;
    }
    RW_OP(MathRI): {
      i64 a = int_val(w.x[static_cast<std::size_t>(ins.c)]);
      w.x[static_cast<std::size_t>(ins.b)] =
          make_int(math_apply(static_cast<MathFn>(ins.a), a, ins.imm));
      return;
    }
    RW_OP(MathCmp): {
      i64 a = int_val(w.x[static_cast<std::size_t>(ins.b)]);
      i64 b = int_val(w.x[static_cast<std::size_t>(ins.c)]);
      bool ok;
      switch (static_cast<CmpFn>(ins.a)) {
        case CmpFn::Lt: ok = a < b; break;
        case CmpFn::Gt: ok = a > b; break;
        case CmpFn::Le: ok = a <= b; break;
        case CmpFn::Ge: ok = a >= b; break;
        case CmpFn::Eq: ok = a == b; break;
        default: ok = a != b; break;
      }
      if (!ok) backtrack(w);
      return;
    }
    RW_OP(Builtin): {
      BResult r = exec_builtin(w, static_cast<BuiltinId>(ins.a), ins.b);
      if (r == BResult::False) backtrack(w);
      return;
    }

    RW_OP(CheckGround):
      if (!ground_cell(w, w.x[static_cast<std::size_t>(ins.a)])) w.p = ins.b;
      return;
    RW_OP(CheckIndep):
      if (!indep_cells(w, w.x[static_cast<std::size_t>(ins.a)],
                       w.x[static_cast<std::size_t>(ins.c)]))
        w.p = ins.b;
      return;
    RW_OP(PFrame):
      exec_pframe(w, ins.a, ins.b, static_cast<u64>(ins.imm));
      return;
    RW_OP(PGoal):
      exec_pgoal(w, ins.a, ins.b, ins.c);
      return;
    RW_OP(PWait):
      w.p = here;  // pwait re-executes until the parcall completes
      exec_pwait(w);
      return;
#if !RAPWAM_THREADED_DISPATCH
  }
  RW_CHECK(false, "unhandled opcode");
#endif
}

}  // namespace rapwam
