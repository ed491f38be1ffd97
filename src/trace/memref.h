// Packed memory-reference record.
//
// The emulator emits one MemRef per data word touched. References are
// packed into 8 bytes so multi-million-reference traces stay cheap:
//
//   bits  0..39  word address (1 TB of simulated words is plenty)
//   bits 40..47  PE id
//   bits 48..51  object class (Table 1 row)
//   bit  52      write flag
//   bit  53      busy flag (PE was doing useful work, not idling/waiting)
#pragma once

#include <cstddef>

#include "support/common.h"
#include "trace/areas.h"

namespace rapwam {

/// Trace-format PE cap: a packed MemRef carries the PE id in 8 bits
/// (bits 40..47), so traces — and everything that records or replays
/// them, including the emulator's machine layout — top out at 256 PEs.
/// The cache simulator itself scales past this (cache/config.h,
/// kMaxPes) but can only be *driven* up to kMaxTracePes by a trace.
inline constexpr unsigned kMaxTracePes = 256;

struct MemRef {
  u64 addr = 0;
  u8 pe = 0;
  ObjClass cls = ObjClass::HeapTerm;
  bool write = false;
  bool busy = true;

  u64 pack() const {
    return (addr & 0xFFFFFFFFFFull) | (u64(pe) << 40) |
           (u64(static_cast<u8>(cls)) << 48) | (u64(write ? 1 : 0) << 52) |
           (u64(busy ? 1 : 0) << 53);
  }

  static MemRef unpack(u64 v) {
    MemRef r;
    r.addr = v & 0xFFFFFFFFFFull;
    r.pe = static_cast<u8>((v >> 40) & 0xFF);
    r.cls = static_cast<ObjClass>((v >> 48) & 0xF);
    r.write = ((v >> 52) & 1) != 0;
    r.busy = ((v >> 53) & 1) != 0;
    return r;
  }
};

/// True iff `v` is a well-formed packed record: nothing above the
/// packed fields (bits 54..63 clear) and an in-range object class.
/// pack() can only produce such words; trace *files* carry no other
/// integrity metadata, so loaders must validate every record before
/// anything indexes per-class tables with it (traits_of on an
/// out-of-range class reads out of bounds).
inline bool packed_ref_valid(u64 v) {
  return (v >> 54) == 0 &&
         ((v >> 48) & 0xF) < static_cast<u64>(ObjClass::kCount);
}

/// References per pipeline chunk (64K refs = 512 KB of packed words):
/// large enough that the virtual chunk handoff and the per-chunk replay
/// hooks (checkpoint/replay_job.h) are negligible per reference, small
/// enough that a chunk stays cache-friendly and a cancellation or
/// checkpoint lands within one chunk's replay time.
inline constexpr std::size_t kChunkRefs = std::size_t(1) << 16;

/// Sink interface the emulator writes references into.
///
/// The handoff is chunk-granular (docs/DESIGN.md §8): the emulator's
/// memory bus accumulates packed references into a fixed-size chunk
/// inline — no virtual call per reference — and dispatches here once
/// per kChunkRefs references (plus a final flush at end of run). Chunk
/// boundaries carry no meaning; `packed` holds `n` references in
/// emission order and is only valid for the duration of the call.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_chunk(const u64* packed, std::size_t n) = 0;

  /// Single-reference convenience for tests and adapters (one chunk of
  /// one reference; not used on any hot path).
  void on_ref(const MemRef& r) {
    u64 p = r.pack();
    on_chunk(&p, 1);
  }
};

}  // namespace rapwam
