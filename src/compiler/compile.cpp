#include "compiler/compile.h"

#include "compiler/verify.h"

#include <algorithm>
#include <optional>
#include <deque>
#include <memory>
#include <unordered_set>

namespace rapwam {

namespace {

/// First X register used for variable homes / build temporaries.
/// Argument registers A1..A32 live below it.
constexpr int kFirstTempX = 33;
constexpr int kMaxX = 255;

class ClauseCompiler {
 public:
  ClauseCompiler(CodeStore& code, Interner& atoms, const NClause& cl)
      : code_(code), atoms_(atoms), cl_(cl),
        info_(analyze_clause(cl.head, cl.body)) {
    nil_ = atoms_.intern("[]");
    dot_ = atoms_.intern(".");
    // Pre-assign stable X homes to every multi-occurrence temporary so
    // that the parallel and sequential paths of a CGE agree on them.
    assign_homes(cl_.head);
    for (const NGoal& g : cl_.body) {
      for (const Term* a : g.args) assign_homes(a);
      for (const CondCheck& c : g.conds) {
        assign_homes(c.a);
        if (c.b) assign_homes(c.b);
      }
      for (const NGoal& pg : g.pgoals)
        for (const Term* a : pg.args) assign_homes(a);
    }
    build_x_ = next_x_;
  }

  i32 compile() {
    i32 entry = code_.size();
    if (info_.needs_env) code_.emit({Op::Allocate, info_.num_y, 0, 0, 0});
    if (info_.cut_y >= 0) code_.emit({Op::GetLevel, info_.cut_y, 0, 0, 0});

    if (cl_.head) {
      for (std::size_t i = 0; i < cl_.head->arity(); ++i) {
        emit_get(cl_.head->args[i], static_cast<int>(i) + 1);
        drain_get_queue();
      }
    }

    bool ended_with_execute = false;
    const auto& body = cl_.body;
    for (std::size_t gi = 0; gi < body.size(); ++gi) {
      const NGoal& g = body[gi];
      bool is_last = (gi + 1 == body.size());
      switch (g.kind) {
        case NGoal::Kind::Cut:
          if (info_.cut_y >= 0)
            code_.emit({Op::Cut, info_.cut_y, 0, 0, 0});
          else
            code_.emit({Op::NeckCut, 0, 0, 0, 0});
          break;
        case NGoal::Kind::Builtin:
          if (emit_compiled_arith(g)) break;
          put_args(g.args, /*unsafe=*/false);
          code_.emit({Op::Builtin, static_cast<i32>(g.bid),
                      static_cast<i32>(g.args.size()), 0, 0});
          break;
        case NGoal::Kind::Call:
          emit_call(g, is_last, ended_with_execute);
          break;
        case NGoal::Kind::Parcall:
          if (g.sequentialized) {
            for (std::size_t j = 0; j < g.pgoals.size(); ++j) {
              bool last_here = is_last && (j + 1 == g.pgoals.size());
              emit_call(g.pgoals[j], last_here, ended_with_execute);
            }
          } else {
            emit_parcall(g);
          }
          break;
      }
    }

    if (!ended_with_execute) {
      if (info_.needs_env) code_.emit({Op::Deallocate, 0, 0, 0, 0});
      code_.emit({Op::Proceed, 0, 0, 0, 0});
    }
    return entry;
  }

 private:
  CodeStore& code_;
  Interner& atoms_;
  const NClause& cl_;
  ClauseInfo info_;
  u32 nil_ = 0, dot_ = 0;

  std::unordered_map<const Term*, int> home_;     // temp var -> X home
  std::unordered_set<const Term*> initialized_;   // var has a value
  int next_x_ = kFirstTempX;  // homes during ctor, then build temps
  int build_x_ = kFirstTempX; // first build temp (reset per goal)
  std::deque<std::pair<int, const Term*>> get_queue_;

  const VarClass& vclass(const Term* v) const {
    auto it = info_.vars.find(v);
    RW_CHECK(it != info_.vars.end(), "unanalyzed variable");
    return it->second;
  }
  bool is_void(const Term* v) const { return vclass(v).occurrences == 1; }
  bool is_perm(const Term* v) const { return vclass(v).permanent; }

  void assign_homes(const Term* t) {
    if (!t) return;
    if (t->is_var()) {
      const auto it = info_.vars.find(t);
      if (it == info_.vars.end()) return;
      const VarClass& vc = it->second;
      if (!vc.permanent && vc.occurrences > 1 && !home_.count(t)) {
        home_[t] = alloc_x();
      }
      return;
    }
    for (const Term* a : t->args) assign_homes(a);
  }

  int alloc_x() {
    if (next_x_ > kMaxX)
      fail("clause too complex: ran out of temporary registers");
    return next_x_++;
  }

  int fresh_build_x() {
    if (build_x_ > kMaxX)
      fail("term too large for in-clause construction");
    return build_x_++;
  }
  void reset_build_x() { build_x_ = next_x_; }

  bool is_nil(const Term* t) const { return t->is_atom() && t->name == nil_; }
  bool is_list(const Term* t) const {
    return t->is_struct() && t->name == dot_ && t->arity() == 2;
  }

  // ---- head compilation -------------------------------------------------

  void emit_get(const Term* t, int ai) {
    switch (t->tag) {
      case TermTag::Var: {
        if (is_void(t)) return;
        bool first = !initialized_.count(t);
        initialized_.insert(t);
        if (is_perm(t)) {
          code_.emit({first ? Op::GetVariableY : Op::GetValueY, vclass(t).y, ai, 0, 0});
        } else {
          code_.emit({first ? Op::GetVariableX : Op::GetValueX, home_.at(t), ai, 0, 0});
        }
        return;
      }
      case TermTag::Atom:
        if (is_nil(t))
          code_.emit({Op::GetNil, 0, ai, 0, 0});
        else
          code_.emit({Op::GetConstant, static_cast<i32>(t->name), ai, 0, 0});
        return;
      case TermTag::Int:
        code_.emit({Op::GetInteger, 0, ai, 0, t->ival});
        return;
      case TermTag::Struct:
        if (is_list(t)) {
          code_.emit({Op::GetList, 0, ai, 0, 0});
        } else {
          code_.emit({Op::GetStructure, static_cast<i32>(t->name), ai,
                      static_cast<i32>(t->arity()), 0});
        }
        emit_unify_stream(t->args);
        return;
    }
  }

  void drain_get_queue() {
    while (!get_queue_.empty()) {
      auto [reg, t] = get_queue_.front();
      get_queue_.pop_front();
      if (is_list(t)) {
        code_.emit({Op::GetList, 0, reg, 0, 0});
      } else {
        code_.emit({Op::GetStructure, static_cast<i32>(t->name), reg,
                    static_cast<i32>(t->arity()), 0});
      }
      emit_unify_stream(t->args);
    }
  }

  void emit_unify_stream(const std::vector<const Term*>& args) {
    for (const Term* a : args) {
      switch (a->tag) {
        case TermTag::Var: {
          if (is_void(a)) {
            emit_unify_void();
            break;
          }
          bool first = !initialized_.count(a);
          initialized_.insert(a);
          if (is_perm(a)) {
            code_.emit({first ? Op::UnifyVariableY : Op::UnifyLocalValueY,
                        vclass(a).y, 0, 0, 0});
          } else {
            code_.emit({first ? Op::UnifyVariableX : Op::UnifyLocalValueX,
                        home_.at(a), 0, 0, 0});
          }
          break;
        }
        case TermTag::Atom:
          if (is_nil(a))
            code_.emit({Op::UnifyNil, 0, 0, 0, 0});
          else
            code_.emit({Op::UnifyConstant, static_cast<i32>(a->name), 0, 0, 0});
          break;
        case TermTag::Int:
          code_.emit({Op::UnifyInteger, 0, 0, 0, a->ival});
          break;
        case TermTag::Struct: {
          int tmp = fresh_build_x();
          code_.emit({Op::UnifyVariableX, tmp, 0, 0, 0});
          get_queue_.emplace_back(tmp, a);
          break;
        }
      }
    }
  }

  void emit_unify_void() {
    if (code_.size() > 0) {
      Instr& last = code_.at(code_.size() - 1);
      if (last.op == Op::UnifyVoid) {
        ++last.a;
        return;
      }
    }
    code_.emit({Op::UnifyVoid, 1, 0, 0, 0});
  }

  // ---- body compilation -------------------------------------------------

  void put_args(const std::vector<const Term*>& args, bool unsafe) {
    reset_build_x();
    for (std::size_t i = 0; i < args.size(); ++i)
      emit_put(args[i], static_cast<int>(i) + 1, unsafe);
  }

  void emit_put(const Term* t, int target, bool unsafe) {
    switch (t->tag) {
      case TermTag::Var: {
        if (is_void(t)) {
          code_.emit({Op::PutVariableX, fresh_build_x(), target, 0, 0});
          return;
        }
        bool first = !initialized_.count(t);
        initialized_.insert(t);
        if (is_perm(t)) {
          Op op = first ? Op::PutVariableY
                        : (unsafe ? Op::PutUnsafeValue : Op::PutValueY);
          code_.emit({op, vclass(t).y, target, 0, 0});
        } else {
          code_.emit({first ? Op::PutVariableX : Op::PutValueX, home_.at(t),
                      target, 0, 0});
        }
        return;
      }
      case TermTag::Atom:
        if (is_nil(t))
          code_.emit({Op::PutNil, 0, target, 0, 0});
        else
          code_.emit({Op::PutConstant, static_cast<i32>(t->name), target, 0, 0});
        return;
      case TermTag::Int:
        code_.emit({Op::PutInteger, 0, target, 0, t->ival});
        return;
      case TermTag::Struct:
        build_compound(t, target);
        return;
    }
  }

  /// Builds `t` (a compound) into register `target`, children first.
  void build_compound(const Term* t, int target) {
    std::vector<int> child_reg(t->arity(), -1);
    for (std::size_t i = 0; i < t->arity(); ++i) {
      if (t->args[i]->is_struct()) {
        int r = fresh_build_x();
        build_compound(t->args[i], r);
        child_reg[i] = r;
      }
    }
    if (is_list(t)) {
      code_.emit({Op::PutList, 0, target, 0, 0});
    } else {
      code_.emit({Op::PutStructure, static_cast<i32>(t->name), target,
                  static_cast<i32>(t->arity()), 0});
    }
    for (std::size_t i = 0; i < t->arity(); ++i) {
      const Term* a = t->args[i];
      if (child_reg[i] >= 0) {
        code_.emit({Op::UnifyValueX, child_reg[i], 0, 0, 0});
        continue;
      }
      switch (a->tag) {
        case TermTag::Var: {
          if (is_void(a)) {
            emit_unify_void();
            break;
          }
          bool first = !initialized_.count(a);
          initialized_.insert(a);
          if (is_perm(a)) {
            code_.emit({first ? Op::UnifyVariableY : Op::UnifyLocalValueY,
                        vclass(a).y, 0, 0, 0});
          } else {
            code_.emit({first ? Op::UnifyVariableX : Op::UnifyLocalValueX,
                        home_.at(a), 0, 0, 0});
          }
          break;
        }
        case TermTag::Atom:
          if (is_nil(a))
            code_.emit({Op::UnifyNil, 0, 0, 0, 0});
          else
            code_.emit({Op::UnifyConstant, static_cast<i32>(a->name), 0, 0, 0});
          break;
        case TermTag::Int:
          code_.emit({Op::UnifyInteger, 0, 0, 0, a->ival});
          break;
        case TermTag::Struct:
          RW_CHECK(false, "compound child should have been prebuilt");
      }
    }
  }

  void emit_call(const NGoal& g, bool is_last, bool& ended_with_execute) {
    i32 proc = code_.proc_index(g.pred);
    bool lco = is_last;
    put_args(g.args, /*unsafe=*/lco && info_.needs_env);
    if (lco) {
      if (info_.needs_env) code_.emit({Op::Deallocate, 0, 0, 0, 0});
      code_.emit({Op::Execute, proc, 0, 0, 0});
      ended_with_execute = true;
    } else {
      code_.emit({Op::Call, proc, 0, 0, 0});
    }
  }

  // ---- compiled arithmetic ---------------------------------------------
  //
  // is/2 and the arithmetic comparisons compile to register-resident
  // Math* instructions when the expression shape is known, as real WAM
  // compilers do. This avoids building expression trees on the heap
  // (the single biggest locality loss of interpreted arithmetic) and
  // keeps fresh integer results out of the heap entirely when the
  // target is a first-occurrence temporary.

  bool arith_supported(const Term* t) const {
    switch (t->tag) {
      case TermTag::Int:
      case TermTag::Var:
        return true;
      case TermTag::Atom:
        return false;
      case TermTag::Struct: {
        const std::string& n = atoms_.name(t->name);
        if (t->arity() == 2 && binary_math(n))
          return arith_supported(t->args[0]) && arith_supported(t->args[1]);
        if (t->arity() == 1 && (n == "+" || unary_math(n)))
          return arith_supported(t->args[0]);
        return false;
      }
    }
    return false;
  }

  /// Emits code evaluating `t` into a fresh X register; returns it.
  /// Callers must have checked arith_supported first.
  int emit_arith(const Term* t) {
    switch (t->tag) {
      case TermTag::Int: {
        int r = fresh_build_x();
        code_.emit({Op::PutInteger, 0, r, 0, t->ival});
        return r;
      }
      case TermTag::Var: {
        int r = fresh_build_x();
        emit_put(t, r, /*unsafe=*/false);
        code_.emit({Op::MathLoad, r, r, 0, 0});
        return r;
      }
      case TermTag::Struct: {
        const std::string& n = atoms_.name(t->name);
        if (t->arity() == 1) {
          if (n == "+") return emit_arith(t->args[0]);
          int c = emit_arith(t->args[0]);
          int r = fresh_build_x();
          MathFn fn = *unary_math(n);
          code_.emit({Op::MathRR, static_cast<i32>(fn), r, c, 0});
          return r;
        }
        int l = emit_arith(t->args[0]);
        MathFn fn = *binary_math(n);
        int r = fresh_build_x();
        if (t->args[1]->is_int()) {
          code_.emit({Op::MathRI, static_cast<i32>(fn), r, l, t->args[1]->ival});
        } else {
          int rr = emit_arith(t->args[1]);
          code_.emit({Op::MathRR, static_cast<i32>(fn), r, l, rr});
        }
        return r;
      }
      default:
        RW_CHECK(false, "unsupported arithmetic shape");
        return 0;
    }
  }

  /// Compiles is/2 and arithmetic comparisons to Math* instructions.
  /// Returns false when the goal must stay an interpreted builtin.
  bool emit_compiled_arith(const NGoal& g) {
    reset_build_x();
    switch (g.bid) {
      case BuiltinId::Is: {
        const Term* target = g.args[0];
        const Term* expr = g.args[1];
        if (!arith_supported(expr)) return false;
        int r = emit_arith(expr);
        if (target->is_var() && !is_void(target) && !initialized_.count(target)) {
          initialized_.insert(target);
          if (is_perm(target))
            code_.emit({Op::GetVariableY, vclass(target).y, r, 0, 0});
          else
            code_.emit({Op::GetVariableX, home_.at(target), r, 0, 0});
          return true;
        }
        if (target->is_var() && is_void(target)) return true;  // evaluated for effect
        int t = fresh_build_x();
        emit_put(target, t, /*unsafe=*/false);
        code_.emit({Op::GetValueX, t, r, 0, 0});
        return true;
      }
      case BuiltinId::LessThan:
      case BuiltinId::GreaterThan:
      case BuiltinId::LessEq:
      case BuiltinId::GreaterEq:
      case BuiltinId::ArithEq:
      case BuiltinId::ArithNeq: {
        if (!arith_supported(g.args[0]) || !arith_supported(g.args[1])) return false;
        int a = emit_arith(g.args[0]);
        int b = emit_arith(g.args[1]);
        CmpFn fn;
        switch (g.bid) {
          case BuiltinId::LessThan: fn = CmpFn::Lt; break;
          case BuiltinId::GreaterThan: fn = CmpFn::Gt; break;
          case BuiltinId::LessEq: fn = CmpFn::Le; break;
          case BuiltinId::GreaterEq: fn = CmpFn::Ge; break;
          case BuiltinId::ArithEq: fn = CmpFn::Eq; break;
          default: fn = CmpFn::Ne; break;
        }
        code_.emit({Op::MathCmp, static_cast<i32>(fn), a, b, 0});
        return true;
      }
      default:
        return false;
    }
  }

  /// Loads a condition-check operand, reusing a temp home when possible.
  int materialize(const Term* t) {
    if (t->is_var() && !is_void(t) && !is_perm(t) && initialized_.count(t))
      return home_.at(t);
    int r = fresh_build_x();
    emit_put(t, r, /*unsafe=*/false);
    return r;
  }

  void emit_parcall(const NGoal& g) {
    RW_CHECK(!g.pgoals.empty(), "empty parcall");
    for (const NGoal& pg : g.pgoals) {
      if (pg.args.size() > kMaxParGoalArity)
        fail("parallel goal arity exceeds goal-frame capacity: " +
             atoms_.name(pg.pred.name));
    }
    reset_build_x();
    std::vector<i32> check_fixups;
    for (const CondCheck& c : g.conds) {
      int xa = materialize(c.a);
      if (c.indep) {
        int xb = materialize(c.b);
        check_fixups.push_back(code_.emit({Op::CheckIndep, xa, -1, xb, 0}));
      } else {
        check_fixups.push_back(code_.emit({Op::CheckGround, xa, -1, 0, 0}));
      }
    }

    // Parallel path. The first goal is executed inline by the parent as
    // an ordinary call (no goal frame, no marker — RAP-WAM keeps one
    // goal for the parent); the remaining k-1 goals are pushed onto the
    // goal stack, right-to-left, so the textually-second goal sits on
    // top and is the first the parent picks up while waiting.
    auto saved_init = initialized_;
    RW_CHECK(info_.pf_y >= 0, "parcall without frame slot");
    i32 pframe_at =
        code_.emit({Op::PFrame, static_cast<i32>(g.pgoals.size()) - 1, info_.pf_y, 0, 0});
    for (std::size_t k = g.pgoals.size(); k-- > 1;) {
      const NGoal& pg = g.pgoals[k];
      i32 proc = code_.proc_index(pg.pred);
      put_args(pg.args, /*unsafe=*/false);
      code_.emit({Op::PGoal, static_cast<i32>(k) - 1, proc,
                  static_cast<i32>(pg.args.size()), 0});
    }
    {
      const NGoal& pg = g.pgoals[0];
      i32 proc = code_.proc_index(pg.pred);
      put_args(pg.args, /*unsafe=*/false);
      code_.emit({Op::Call, proc, 0, 0, 0});
    }
    i32 pwait_at = code_.emit({Op::PWait, info_.pf_y, 0, 0, 0});
    code_.at(pframe_at).imm = pwait_at;  // abort target for sibling kills

    if (!g.conds.empty()) {
      i32 jmp = code_.emit({Op::Jump, -1, 0, 0, 0});
      i32 lseq = code_.size();
      for (i32 f : check_fixups) code_.at(f).b = lseq;
      // Sequential fallback: same goals, ordinary calls, and the same
      // first-occurrence decisions as the parallel path.
      initialized_ = saved_init;
      for (const NGoal& pg : g.pgoals) {
        i32 proc = code_.proc_index(pg.pred);
        put_args(pg.args, /*unsafe=*/false);
        code_.emit({Op::Call, proc, 0, 0, 0});
      }
      code_.at(jmp).a = code_.size();
    }
  }
};

class ProgramCompiler {
 public:
  ProgramCompiler(Program& prog, bool strip) : prog_(prog), strip_(strip) {}

  std::unique_ptr<CodeStore> run() {
    auto code = std::make_unique<CodeStore>(prog_.atoms());
    NormalizedProgram np = normalize(prog_, strip_);
    for (PredId p : np.order) compile_pred(*code, p, np.preds.at(p));
    // Meta-call support: unless the user defined call/1 themselves,
    // emit its engine stub (a tail-transferring builtin). Always
    // present so top-level call/1 queries work too.
    PredId callp{prog_.atoms().intern("call"), 1};
    i32 ci = code->proc_index(callp);
    if (code->proc(ci).entry < 0) {
      code->proc(ci).entry =
          code->emit({Op::Builtin, static_cast<i32>(BuiltinId::Call1), 1, 0, 0});
    }
    code->link_check();
    return code;
  }

 private:
  Program& prog_;
  bool strip_;

  enum class ArgKind { Var, Const, List, Struct };

  struct ClauseIdx {
    i32 addr = 0;
    ArgKind kind = ArgKind::Var;
    u64 key = 0;  // const/struct switch key
  };

  void compile_pred(CodeStore& code, PredId p, const std::vector<NClause>& cls) {
    RW_CHECK(!cls.empty(), "predicate with no clauses");
    std::vector<ClauseIdx> idx;
    for (const NClause& c : cls) {
      ClauseCompiler cc(code, prog_.atoms(), c);
      ClauseIdx ci;
      ci.addr = cc.compile();
      classify(c.head, ci);
      idx.push_back(ci);
    }

    i32 entry;
    if (idx.size() == 1) {
      entry = idx[0].addr;
    } else {
      entry = build_index(code, p, idx);
    }
    i32 pi = code.proc_index(p);
    code.proc(pi).entry = entry;
  }

  void classify(const Term* head, ClauseIdx& ci) {
    if (!head || head->arity() == 0) {
      ci.kind = ArgKind::Var;  // no first argument: chain only
      return;
    }
    const Term* a = head->args[0];
    switch (a->tag) {
      case TermTag::Var:
        ci.kind = ArgKind::Var;
        break;
      case TermTag::Atom:
        ci.kind = ArgKind::Const;
        ci.key = CodeStore::const_key_atom(a->name);
        break;
      case TermTag::Int:
        ci.kind = ArgKind::Const;
        ci.key = CodeStore::const_key_int(a->ival);
        break;
      case TermTag::Struct:
        if (prog_.atoms().name(a->name) == "." && a->arity() == 2) {
          ci.kind = ArgKind::List;
        } else {
          ci.kind = ArgKind::Struct;
          ci.key = CodeStore::struct_key(a->name, static_cast<u32>(a->arity()));
        }
        break;
    }
  }

  /// Emits a try/retry/trust chain over `addrs`; returns its entry.
  /// `nargs` is the predicate arity (argument registers saved in the
  /// choice point).
  static i32 chain(CodeStore& code, const std::vector<i32>& addrs, i32 nargs) {
    if (addrs.empty()) return kFailAddr;
    if (addrs.size() == 1) return addrs[0];
    i32 entry = code.size();
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      Op op = i == 0 ? Op::Try : (i + 1 == addrs.size() ? Op::Trust : Op::Retry);
      code.emit({op, addrs[i], nargs, 0, 0});
    }
    return entry;
  }

  i32 build_index(CodeStore& code, PredId p, const std::vector<ClauseIdx>& idx) {
    std::vector<i32> all;
    for (const ClauseIdx& c : idx) all.push_back(c.addr);
    i32 na = static_cast<i32>(p.arity);
    i32 lvar = chain(code, all, na);

    bool discriminates = p.arity >= 1 &&
        std::any_of(idx.begin(), idx.end(),
                    [](const ClauseIdx& c) { return c.kind != ArgKind::Var; });
    if (!discriminates) return lvar;

    auto subset = [&](auto pred) {
      std::vector<i32> v;
      for (const ClauseIdx& c : idx)
        if (c.kind == ArgKind::Var || pred(c)) v.push_back(c.addr);
      return v;
    };
    std::vector<i32> var_only;
    for (const ClauseIdx& c : idx)
      if (c.kind == ArgKind::Var) var_only.push_back(c.addr);

    // Constants: one chain per distinct key, default = var-headed chain.
    i32 lconst = kFailAddr;
    {
      std::vector<u64> keys;
      for (const ClauseIdx& c : idx)
        if (c.kind == ArgKind::Const &&
            std::find(keys.begin(), keys.end(), c.key) == keys.end())
          keys.push_back(c.key);
      if (!keys.empty()) {
        i32 table = code.new_switch_table();
        for (u64 k : keys) {
          auto v = subset([&](const ClauseIdx& c) {
            return c.kind == ArgKind::Const && c.key == k;
          });
          code.switch_add(table, k, chain(code, v, na));
        }
        i32 dflt = chain(code, var_only, na);
        lconst = code.emit({Op::SwitchOnConst, table, dflt, 0, 0});
      } else if (!var_only.empty()) {
        lconst = chain(code, var_only, na);
      }
    }

    // Lists.
    i32 llist = chain(code, subset([](const ClauseIdx& c) {
      return c.kind == ArgKind::List;
    }), na);

    // Structures.
    i32 lstruct = kFailAddr;
    {
      std::vector<u64> keys;
      for (const ClauseIdx& c : idx)
        if (c.kind == ArgKind::Struct &&
            std::find(keys.begin(), keys.end(), c.key) == keys.end())
          keys.push_back(c.key);
      if (!keys.empty()) {
        i32 table = code.new_switch_table();
        for (u64 k : keys) {
          auto v = subset([&](const ClauseIdx& c) {
            return c.kind == ArgKind::Struct && c.key == k;
          });
          code.switch_add(table, k, chain(code, v, na));
        }
        i32 dflt = chain(code, var_only, na);
        lstruct = code.emit({Op::SwitchOnStruct, table, dflt, 0, 0});
      } else if (!var_only.empty()) {
        lstruct = chain(code, var_only, na);
      }
    }

    return code.emit({Op::SwitchOnTerm, lvar, lconst, llist, lstruct});
  }
};

}  // namespace

std::unique_ptr<CodeStore> compile_program(Program& prog, const CompileOptions& opts) {
  auto code = ProgramCompiler(prog, opts.strip_cge).run();
  verify_code(*code);
  return code;
}

}  // namespace rapwam
