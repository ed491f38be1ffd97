#include "compiler/code.h"

#include <sstream>

namespace rapwam {

CodeStore::CodeStore(Interner& atoms) : atoms_(atoms) {
  emit(Instr{Op::FailAlways, 0, 0, 0, 0});    // kFailAddr
  emit(Instr{Op::EndGoal, 0, 0, 0, 0});       // kEndGoalAddr
  emit(Instr{Op::EndLocalGoal, 0, 0, 0, 0});  // kEndLocalGoalAddr
}

i32 CodeStore::proc_index(PredId p) {
  auto it = proc_ids_.find(p);
  if (it != proc_ids_.end()) return it->second;
  if (procs_.size() >= static_cast<std::size_t>(index_limit_)) [[unlikely]]
    fail("proc table overflow: program needs more than " +
         std::to_string(index_limit_) + " predicates");
  i32 idx = static_cast<i32>(procs_.size());
  procs_.push_back(Proc{p, -1});
  proc_ids_.emplace(p, idx);
  return idx;
}

i32 CodeStore::new_switch_table() {
  if (tables_.size() >= static_cast<std::size_t>(index_limit_)) [[unlikely]]
    fail("switch-table overflow: program needs more than " +
         std::to_string(index_limit_) + " switch tables");
  tables_.emplace_back();
  return static_cast<i32>(tables_.size()) - 1;
}

void CodeStore::switch_add(i32 table, u64 key, i32 addr) {
  tables_[static_cast<std::size_t>(table)][key] = addr;
}

i32 CodeStore::switch_lookup(i32 table, u64 key) const {
  const auto& t = tables_[static_cast<std::size_t>(table)];
  auto it = t.find(key);
  return it == t.end() ? kFailAddr : it->second;
}

void CodeStore::link_check() const {
  std::string missing;
  for (const Proc& p : procs_) {
    if (p.entry < 0) {
      missing += "  " + atoms_.name(p.pred.name) + "/" + std::to_string(p.pred.arity) + "\n";
    }
  }
  if (!missing.empty()) fail("undefined predicates:\n" + missing);
}

std::string CodeStore::disassemble(i32 from, i32 to) const {
  std::ostringstream os;
  for (i32 i = from; i < to; ++i) {
    const Instr& ins = at(i);
    os << i << ": " << op_name(ins.op);
    switch (ins.op) {
      case Op::Call:
      case Op::Execute: {
        const Proc& p = proc(ins.a);
        os << " " << atoms_.name(p.pred.name) << "/" << p.pred.arity;
        break;
      }
      case Op::PGoal: {
        const Proc& p = proc(ins.b);
        os << " slot=" << ins.a << " " << atoms_.name(p.pred.name) << "/" << p.pred.arity;
        break;
      }
      case Op::GetConstant:
      case Op::PutConstant:
      case Op::UnifyConstant:
        os << " '" << atoms_.name(static_cast<u32>(ins.a)) << "' A" << ins.b;
        break;
      case Op::GetStructure:
      case Op::PutStructure:
        os << " " << atoms_.name(static_cast<u32>(ins.a)) << "/" << ins.c << " A" << ins.b;
        break;
      case Op::GetInteger:
      case Op::PutInteger:
      case Op::UnifyInteger:
        os << " " << ins.imm << " A" << ins.b;
        break;
      case Op::Builtin:
        os << " " << builtin_name(static_cast<BuiltinId>(ins.a)) << "/" << ins.b;
        break;
      case Op::SwitchOnTerm:
        os << " var=" << ins.a << " const=" << ins.b << " list=" << ins.c
           << " struct=" << ins.imm;
        break;
      default:
        if (ins.a || ins.b || ins.c || ins.imm) {
          os << " " << ins.a;
          if (ins.b || ins.c || ins.imm) os << "," << ins.b;
          if (ins.c || ins.imm) os << "," << ins.c;
          if (ins.imm) os << "," << ins.imm;
        }
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rapwam
