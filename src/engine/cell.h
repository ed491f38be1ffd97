// Tagged-cell encoding for the simulated RAP-WAM data memory.
//
// One cell = 64 bits: 8-bit tag, 56-bit payload. Addresses are word
// indices into the flat simulated memory (all PEs' Stack Sets live in
// one address space, so terms may reference other PEs' heaps — the
// essence of the shared-memory model).
#pragma once

#include "support/common.h"

namespace rapwam {

enum class Tag : u8 {
  Ref = 0,  ///< variable; payload = address (self-reference == unbound)
  Str,      ///< payload = address of functor cell
  Lis,      ///< payload = address of 2-cell [head, tail] pair
  Con,      ///< constant atom; payload = atom id
  Int,      ///< 56-bit signed integer in [kIntMin, kIntMax]
  Fun,      ///< functor cell; payload = (atom id << 16) | arity
  Raw,      ///< untyped machine word (control fields, counters, locks)
};

constexpr u64 kPayloadMask = (u64(1) << 56) - 1;

constexpr u64 make_cell(Tag t, u64 v) {
  return (u64(static_cast<u8>(t)) << 56) | (v & kPayloadMask);
}
constexpr Tag cell_tag(u64 c) { return static_cast<Tag>(c >> 56); }
constexpr u64 cell_val(u64 c) { return c & kPayloadMask; }

constexpr u64 make_ref(u64 addr) { return make_cell(Tag::Ref, addr); }
constexpr u64 make_str(u64 addr) { return make_cell(Tag::Str, addr); }
constexpr u64 make_lis(u64 addr) { return make_cell(Tag::Lis, addr); }
constexpr u64 make_con(u32 atom) { return make_cell(Tag::Con, atom); }
constexpr u64 make_fun(u32 atom, u32 arity) {
  return make_cell(Tag::Fun, (u64(atom) << 16) | arity);
}
constexpr u64 make_raw(u64 v) { return make_cell(Tag::Raw, v); }

constexpr u64 make_int(i64 v) { return make_cell(Tag::Int, static_cast<u64>(v)); }
constexpr i64 int_val(u64 c) {
  // Sign-extend the 56-bit payload.
  u64 v = cell_val(c);
  return static_cast<i64>(v << 8) >> 8;
}
static_assert(int_val(make_int(kIntMin)) == kIntMin &&
              int_val(make_int(kIntMax)) == kIntMax);

constexpr u32 fun_name(u64 c) { return static_cast<u32>(cell_val(c) >> 16); }
constexpr u32 fun_arity(u64 c) { return static_cast<u32>(cell_val(c) & 0xFFFF); }

}  // namespace rapwam
