// Code store: the loaded parallel-WAM program.
//
// Holds the flat instruction array, the procedure table (predicate ->
// entry address), switch tables for first-argument indexing, and the
// reserved prelude addresses the engine jumps to (fail / end-of-goal).
// Also provides a disassembler for tests and debugging.
#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "compiler/instr.h"
#include "prolog/term.h"

namespace rapwam {

/// Upper bound on every i32-indexed code-store space (code addresses,
/// proc indices, switch-table ids). Growing past it would wrap
/// static_cast<i32> into a bogus (negative) jump address, so emit /
/// proc_index / new_switch_table throw rapwam::Error at the bound
/// instead. Reaching the real bound takes 2^31 emits; tests lower it
/// via set_index_limit_for_testing.
inline constexpr i32 kMaxCodeIndex = std::numeric_limits<i32>::max() - 1;

/// Reserved addresses, emitted by the CodeStore constructor.
inline constexpr i32 kFailAddr = 0;          ///< FailAlways
inline constexpr i32 kEndGoalAddr = 1;       ///< EndGoal (CP of stolen goals)
inline constexpr i32 kEndLocalGoalAddr = 2;  ///< EndLocalGoal (CP of local goals)

struct Proc {
  PredId pred;
  i32 entry = -1;  ///< -1 until compiled; calls to -1 fail at link check
};

class CodeStore {
 public:
  explicit CodeStore(Interner& atoms);

  i32 emit(const Instr& ins) {
    if (code_.size() >= static_cast<std::size_t>(index_limit_)) [[unlikely]]
      fail("code store overflow: program needs more than " +
           std::to_string(index_limit_) + " instructions");
    code_.push_back(ins);
    return static_cast<i32>(code_.size()) - 1;
  }
  Instr& at(i32 addr) { return code_[static_cast<std::size_t>(addr)]; }
  const Instr& at(i32 addr) const { return code_[static_cast<std::size_t>(addr)]; }
  i32 size() const { return static_cast<i32>(code_.size()); }

  /// Index of the proc entry for `p`, creating an unresolved one if new.
  i32 proc_index(PredId p);
  /// Lookup without creating; -1 if the predicate has no proc entry.
  i32 find_proc(PredId p) const {
    auto it = proc_ids_.find(p);
    return it == proc_ids_.end() ? -1 : it->second;
  }
  Proc& proc(i32 idx) { return procs_[static_cast<std::size_t>(idx)]; }
  const Proc& proc(i32 idx) const { return procs_[static_cast<std::size_t>(idx)]; }
  std::size_t proc_count() const { return procs_.size(); }

  /// Switch table support: keys are tagged constants (see const_key).
  i32 new_switch_table();
  i32 table_count() const { return static_cast<i32>(tables_.size()); }
  void switch_add(i32 table, u64 key, i32 addr);
  i32 switch_lookup(i32 table, u64 key) const;  ///< kFailAddr on miss

  /// Key encodings shared by compiler and engine.
  static u64 const_key_atom(u32 atom_id) { return (u64(atom_id) << 1) | 1; }
  static u64 const_key_int(i64 v) { return u64(v) << 1; }
  static u64 struct_key(u32 functor, u32 arity) { return (u64(functor) << 16) | arity; }

  /// Throws if any referenced predicate was never compiled.
  void link_check() const;

  Interner& atoms() const { return atoms_; }
  std::string disassemble(i32 from, i32 to) const;
  std::string disassemble_all() const { return disassemble(0, size()); }

  /// Visits every switch-table entry as (table, key, addr). Used by the
  /// verifier's target check.
  template <class Fn>
  void for_each_switch_entry(Fn&& fn) const {
    for (std::size_t t = 0; t < tables_.size(); ++t)
      for (const auto& [key, addr] : tables_[t])
        fn(static_cast<i32>(t), key, addr);
  }

  /// Replaces the instruction array wholesale, leaving proc entries and
  /// switch tables as they are. The verifier tests use it to forge
  /// truncated and corrupted stores.
  void replace_code(std::vector<Instr> c) { code_ = std::move(c); }

  /// Lowers the i32-index overflow bound (default kMaxCodeIndex) so the
  /// guard is unit-testable without 2^31 emits.
  void set_index_limit_for_testing(i32 n) { index_limit_ = n; }

 private:
  Interner& atoms_;
  std::vector<Instr> code_;
  std::vector<Proc> procs_;
  std::unordered_map<PredId, i32, PredIdHash> proc_ids_;
  std::vector<std::unordered_map<u64, i32>> tables_;
  i32 index_limit_ = kMaxCodeIndex;
};

}  // namespace rapwam
