// Bytecode verifier: a static pass over a compiled CodeStore that
// proves every instruction the dispatch cores could fetch is safe to
// execute blindly — all branch / switch / try-retry-trust targets land
// inside the code array, and every operand used as an X register, Y
// slot, proc index, switch-table id, atom id or enum discriminant is
// within bounds.
//
// Runs at the end of compile_program and over any CodeStore a test
// forges by hand. Rejection is a structured rapwam::Error whose
// message pins the offending address and rule ("verify: @12 Jump:
// target 999 out of range [0,34)"), so a corrupted or malicious
// program fails loudly before the first instruction executes instead
// of as UB inside the computed-goto loop.
#pragma once

#include "compiler/code.h"

namespace rapwam {

/// Number of X registers a Worker owns (std::array<u64, 256> x).
/// Every operand the engine uses to index that array must be below it.
inline constexpr i32 kVerifyMaxXRegs = 256;

/// Sanity cap on Y-slot indices / environment sizes / unify_void
/// counts / parcall slot counts. Environments are sized dynamically,
/// so the verifier can only enforce a structural bound; 2^16 is far
/// above anything the compiler emits and far below anything that
/// could alias another stack area.
inline constexpr i32 kVerifyMaxYSlots = 1 << 16;

/// Verifies `code`; throws rapwam::Error ("verify: ...") on the first
/// violation. A CodeStore that passes cannot make either dispatch core
/// index out of bounds through operands alone.
void verify_code(const CodeStore& code);

}  // namespace rapwam
