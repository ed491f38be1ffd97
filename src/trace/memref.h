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

#include <array>
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

/// Aggregate counters over a reference stream.
struct RefCounts {
  u64 total = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 busy = 0;  ///< refs issued while doing useful work ("work" in Fig. 2)
  std::array<u64, kAreaCount> by_area{};
  std::array<u64, kObjClassCount> by_class{};
  std::array<u64, kMaxTracePes> by_pe{};

  bool operator==(const RefCounts&) const = default;

  /// Counts `n` references like `r` (its address is not counted).
  void add(const MemRef& r, u64 n = 1) {
    total += n;
    if (r.write) writes += n; else reads += n;
    if (r.busy) busy += n;
    by_area[static_cast<std::size_t>(traits_of(r.cls).area)] += n;
    by_class[static_cast<std::size_t>(r.cls)] += n;
    by_pe[r.pe] += n;  // u8 PE id: always < kMaxTracePes
  }

  /// PEs the counted stream was recorded on (highest PE id seen + 1).
  unsigned pes() const {
    for (std::size_t i = by_pe.size(); i-- > 0;)
      if (by_pe[i]) return static_cast<unsigned>(i) + 1;
    return 1;
  }
};

/// Sink interface the emulator writes references into.
///
/// The handoff is chunk-granular (docs/DESIGN.md §8): the emulator's
/// memory bus counts every reference, packs the ones the sink keeps
/// into a fixed-size chunk inline — no virtual call per reference —
/// and dispatches here once per kChunkRefs kept references (plus a
/// final flush at end of run). Chunk boundaries carry no meaning;
/// `packed` holds `n` references in emission order and is only valid
/// for the duration of the call. A sink stores what it is given: the
/// busy filter and the counters live in the bus, which hands its
/// counters over once, through on_counts(), after the final flush.
class TraceSink {
 public:
  /// `busy_only`: the sink keeps only busy references (what the cache
  /// simulators consume), so the bus never packs idle ones for it.
  explicit TraceSink(bool busy_only) : busy_only_(busy_only) {}
  virtual ~TraceSink() = default;

  bool busy_only() const { return busy_only_; }

  virtual void on_chunk(const u64* packed, std::size_t n) = 0;
  /// End of run: counters over every reference the run emitted, kept
  /// or not. Called once, after the last on_chunk().
  virtual void on_counts(const RefCounts&) {}

  /// Single-reference convenience for tests and adapters (one chunk of
  /// one reference; not used on any hot path).
  void on_ref(const MemRef& r) {
    u64 p = r.pack();
    on_chunk(&p, 1);
  }

 private:
  bool busy_only_;
};

}  // namespace rapwam
