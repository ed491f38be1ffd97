// Code generator: normalised program -> parallel WAM code.
//
// Implements the classic WAM compilation scheme (head get/unify
// streams with nested-structure queues, body put streams built
// bottom-up, last-call optimisation, first-argument indexing with
// switch_on_term / switch_on_constant / switch_on_structure and
// try/retry/trust chains, neck cut and get_level/cut) plus the RAP-WAM
// CGE scheme:
//
//     <check_ground / check_indep ... jump to Lseq on failure>
//     pframe K
//     <puts for goal K-1> pgoal K-1 ...    (pushed last-to-first so the
//     ...                                   leftmost goal is at the
//     <puts for goal 0>   pgoal 0 ...       stack top for the parent)
//     pwait
//     jump Lend
//   Lseq: <sequential calls>               (only when checks exist)
//   Lend: ...
#pragma once

#include "compiler/analyze.h"
#include "compiler/code.h"
#include "compiler/normalize.h"

namespace rapwam {

/// Maximum arity of a goal inside a CGE (goal frames have a fixed
/// stride in the Goal Stack).
inline constexpr u32 kMaxParGoalArity = 12;

/// Code-generation switches.
struct CompileOptions {
  bool strip_cge = false;  ///< sequential-WAM baseline compilation
  /// Inert: nothing reads it. It selected the superinstruction fusion
  /// pass, which is gone (docs/DESIGN.md §13); pipebench still sets it,
  /// and the benchmark change that refreshes pipebench removes it.
  bool fuse = false;
};

/// Compiles every predicate of `prog` into a fresh CodeStore.
/// Throws Error for undefined predicates or unsupported constructs.
std::unique_ptr<CodeStore> compile_program(Program& prog, const CompileOptions& opts);

}  // namespace rapwam
