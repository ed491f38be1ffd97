#include "compiler/fuse.h"

#include <algorithm>

namespace rapwam {

std::vector<i32> branch_targets(const CodeStore& code) {
  std::vector<i32> out;
  // Reserved prelude: the engine jumps here directly.
  out.push_back(kFailAddr);
  out.push_back(kEndGoalAddr);
  out.push_back(kEndLocalGoalAddr);
  for (i32 a = 0; a < code.size(); ++a) {
    const Instr& ins = code.at(a);
    switch (ins.op) {
      case Op::Jump:
      case Op::TryMeElse:
      case Op::RetryMeElse:
      case Op::Try:
      case Op::Retry:
      case Op::Trust:
        out.push_back(ins.a);
        break;
      case Op::SwitchOnTerm:
        out.push_back(ins.a);
        out.push_back(ins.b);
        out.push_back(ins.c);
        out.push_back(static_cast<i32>(ins.imm));
        break;
      case Op::SwitchOnConst:
      case Op::SwitchOnStruct:
        out.push_back(ins.b);  // default chain; table entries added below
        break;
      case Op::CheckGround:
      case Op::CheckIndep:
        out.push_back(ins.b);  // sequential-fallback label
        break;
      case Op::PFrame:
        out.push_back(static_cast<i32>(ins.imm));  // pwait abort target
        break;
      default:
        break;
    }
  }
  for (std::size_t p = 0; p < code.proc_count(); ++p) {
    i32 e = code.proc(static_cast<i32>(p)).entry;
    if (e >= 0) out.push_back(e);
  }
  code.for_each_switch_entry(
      [&](i32 /*table*/, u64 /*key*/, i32 addr) { out.push_back(addr); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int fused_width(Op op) {
  switch (op) {
    case Op::FuseCmpGuard:
      return 5;
    case Op::FuseGetListUnifyVarX2:
    case Op::FusePutValueX2Execute:
    case Op::FuseNeckCutPutValueX2:
    case Op::FuseGetVarXGetListUnifyLocalX:
      return 3;
    case Op::FusePutValueX2:
    case Op::FusePutValueXMathLoad:
    case Op::FuseGetVarX2:
    case Op::FuseMathRRGetVarX:
      return 2;
    default:
      return 1;
  }
}

namespace {

constexpr bool reg16(i32 r) { return r >= 0 && r <= 0xFFFF; }

/// Collects every fused instruction whose window starts at `a` into
/// `out`. `joinable(k)` says whether the k-th following instruction may
/// be swallowed (exists and is not a branch target). Candidates of all
/// widths are produced; the DP in fuse_code picks the combination that
/// minimizes total dispatches.
template <class Joinable>
void candidates(const CodeStore& code, i32 a, Joinable&& joinable,
                std::vector<Instr>& out) {
  out.clear();
  const Instr& i1 = code.at(a);
  if (!joinable(1)) return;
  const Instr& i2 = code.at(a + 1);
  const Instr* i3 = joinable(2) ? &code.at(a + 2) : nullptr;
  switch (i1.op) {
    case Op::PutValueX:
      if (i2.op == Op::PutValueX) {
        out.push_back({Op::FusePutValueX2, i1.a, i1.b, i2.a, i2.b});
        if (i3 && i3->op == Op::Execute && reg16(i2.b))
          out.push_back({Op::FusePutValueX2Execute, i1.a, i1.b, i2.a,
                         static_cast<i64>(i2.b) | (static_cast<i64>(i3->a) << 32)});
      }
      if (i2.op == Op::MathLoad) {
        out.push_back({Op::FusePutValueXMathLoad, i1.a, i1.b, i2.a, i2.b});
        // The compiled guard of an arithmetic clause: both operands are
        // staged into temp registers, integer-checked in place, then
        // compared. Requires the in-place math_load shape (dst == src
        // == the staging register) the compiler emits.
        if (i3 && joinable(3) && joinable(4) && i2.a == i2.b && i2.a == i1.b) {
          const Instr& i4 = code.at(a + 3);
          const Instr& i5 = code.at(a + 4);
          if (i3->op == Op::PutValueX && i4.op == Op::MathLoad &&
              i4.a == i4.b && i4.a == i3->b && i5.op == Op::MathCmp &&
              i5.b == i1.b && i5.c == i3->b && reg16(i3->b) && i5.a >= 0 &&
              i5.a <= 0xFF)
            out.push_back({Op::FuseCmpGuard, i1.a, i1.b, i3->a,
                           static_cast<i64>(i3->b) | (static_cast<i64>(i5.a) << 16)});
        }
      }
      return;
    case Op::GetList:
      if (i2.op == Op::UnifyVariableX && i3 && i3->op == Op::UnifyVariableX)
        out.push_back({Op::FuseGetListUnifyVarX2, i2.a, i1.b, i3->a, 0});
      return;
    case Op::GetVariableX:
      if (i2.op == Op::GetVariableX)
        out.push_back({Op::FuseGetVarX2, i1.a, i1.b, i2.a, i2.b});
      if (i2.op == Op::GetList && i3 && i3->op == Op::UnifyLocalValueX)
        out.push_back({Op::FuseGetVarXGetListUnifyLocalX, i1.a, i1.b, i2.b, i3->a});
      return;
    case Op::NeckCut:
      if (i2.op == Op::PutValueX && i3 && i3->op == Op::PutValueX)
        out.push_back({Op::FuseNeckCutPutValueX2, i2.a, i2.b, i3->a, i3->b});
      return;
    case Op::MathRR:
      // Bind-the-result idiom: math_rr into a temp, then name it.
      // Requires the get_variable source to be the math_rr destination;
      // both packed registers must fit 16 bits (the compiler never
      // allocates X registers near 2^16, but an unfusable pair is
      // merely left alone).
      if (i2.op == Op::GetVariableX && i2.b == i1.b && reg16(i2.a) &&
          i1.imm >= 0 && i1.imm <= 0xFFFF)
        out.push_back({Op::FuseMathRRGetVarX, i1.a, i1.b, i1.c,
                       i1.imm | (static_cast<i64>(i2.a) << 16)});
      return;
    default:
      return;
  }
}

}  // namespace

int fuse_code(CodeStore& code) {
  const i32 n = code.size();
  std::vector<bool> is_target(static_cast<std::size_t>(n), false);
  for (i32 t : branch_targets(code)) {
    RW_CHECK(t >= 0 && t < n, "branch target outside code array");
    is_target[static_cast<std::size_t>(t)] = true;
  }

  // Pick, per address, the window that minimizes total dispatches from
  // here to the end (right-to-left DP; greedy longest-first is not
  // optimal when e.g. a pair at A would preempt a 5-wide guard at A+1).
  // choice[a] holds the fused instruction chosen at a, op == kOpCount
  // when a stays unfused.
  std::vector<i32> cost(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Instr> choice(static_cast<std::size_t>(n));
  std::vector<Instr> cand;
  for (i32 a = n - 1; a >= 0; --a) {
    auto joinable = [&](i32 k) {
      return a + k < n && !is_target[static_cast<std::size_t>(a + k)];
    };
    choice[static_cast<std::size_t>(a)].op = Op::kOpCount;
    cost[static_cast<std::size_t>(a)] = 1 + cost[static_cast<std::size_t>(a) + 1];
    candidates(code, a, joinable, cand);
    for (const Instr& f : cand) {
      i32 c = 1 + cost[static_cast<std::size_t>(a + fused_width(f.op))];
      if (c < cost[static_cast<std::size_t>(a)]) {
        cost[static_cast<std::size_t>(a)] = c;
        choice[static_cast<std::size_t>(a)] = f;
      }
    }
  }

  // Rebuild compacted, mapping old -> new addresses. Interior
  // (swallowed) addresses map to -1; by construction no branch target
  // is ever interior, which the remap below re-checks.
  std::vector<i32> map(static_cast<std::size_t>(n), -1);
  std::vector<Instr> out;
  out.reserve(static_cast<std::size_t>(n));
  int fused = 0;
  for (i32 a = 0; a < n;) {
    map[static_cast<std::size_t>(a)] = static_cast<i32>(out.size());
    const Instr& f = choice[static_cast<std::size_t>(a)];
    if (f.op != Op::kOpCount) {
      out.push_back(f);
      ++fused;
      a += fused_width(f.op);
    } else {
      out.push_back(code.at(a));
      ++a;
    }
  }
  if (fused == 0) return 0;

  auto remap = [&](i32 old) {
    RW_CHECK(old >= 0 && old < n, "fusion remap: address outside code array");
    i32 nw = map[static_cast<std::size_t>(old)];
    RW_CHECK(nw >= 0, "fusion swallowed a branch target");
    return nw;
  };
  for (Instr& ins : out) {
    switch (ins.op) {
      case Op::Jump:
      case Op::TryMeElse:
      case Op::RetryMeElse:
      case Op::Try:
      case Op::Retry:
      case Op::Trust:
        ins.a = remap(ins.a);
        break;
      case Op::SwitchOnTerm:
        ins.a = remap(ins.a);
        ins.b = remap(ins.b);
        ins.c = remap(ins.c);
        ins.imm = remap(static_cast<i32>(ins.imm));
        break;
      case Op::SwitchOnConst:
      case Op::SwitchOnStruct:
        ins.b = remap(ins.b);
        break;
      case Op::CheckGround:
      case Op::CheckIndep:
        ins.b = remap(ins.b);
        break;
      case Op::PFrame:
        ins.imm = remap(static_cast<i32>(ins.imm));
        break;
      default:
        break;
    }
  }
  for (std::size_t p = 0; p < code.proc_count(); ++p) {
    Proc& pr = code.proc(static_cast<i32>(p));
    if (pr.entry >= 0) pr.entry = remap(pr.entry);
  }
  code.remap_switch_entries(remap);
  code.replace_code(std::move(out));
  return fused;
}

}  // namespace rapwam
