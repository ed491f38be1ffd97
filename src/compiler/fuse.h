// Superinstruction fusion: a peephole pass over compiled code that
// rewrites hot straight-line opcode pairs/triples into single fused
// opcodes (enum Op, "Fuse*" block), so the interpreter pays one
// dispatch for two or three instructions on the WAM's get/unify/put
// hot streams.
//
// Legality (docs/DESIGN.md §13): a window [A, A+k) may fuse only when
// every instruction after the first is NOT a branch target — proc
// entries, switch-table entries, try/retry/trust chain slots, jump and
// check fixup targets, pframe wait addresses and the reserved prelude
// all pin their addresses. The pass rewrites the code array in place
// (the fused instruction replaces the window) and remaps every address
// operand, proc entry and switch-table entry through the old->new map.
//
// The fused set is the smallest that keeps 90% of the dispatches a
// wider 26-opcode set saved on the benchmark programs, found by greedy
// backward elimination (docs/DESIGN.md §13).
#pragma once

#include <vector>

#include "compiler/code.h"

namespace rapwam {

/// Fuses eligible windows in `code` in place. Returns the number of
/// fused instructions emitted (0 when nothing matched).
int fuse_code(CodeStore& code);

/// The set of code addresses that must stay addressable: every address
/// operand in the code array, every proc entry, every switch-table
/// entry, and the reserved prelude. Exposed for the fusion tests.
std::vector<i32> branch_targets(const CodeStore& code);

/// Number of original instructions a fused opcode stands for
/// (1 for every plain opcode). The engine and disassembler use this to
/// keep instruction/cycle accounting and listings exact.
int fused_width(Op op);

}  // namespace rapwam
