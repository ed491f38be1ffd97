// Cache simulation configuration: coherency protocol, geometry and
// allocation policy — the knobs the paper sweeps in Figure 4.
#pragma once

#include <string>

#include "support/common.h"
#include "trace/memref.h"

namespace rapwam {

/// Coherency protocols simulated (paper §3.1).
enum class Protocol : u8 {
  WriteThrough,      ///< conventional coherent write-through (invalidate)
  WriteInBroadcast,  ///< distributed broadcast, write-invalidate, copy-back
  WriteThroughBroadcast,  ///< distributed broadcast, write-update
  Hybrid,            ///< tag-driven: global data write-through, local copy-back
  Copyback,          ///< non-coherent copy-back (sequential baseline, Table 3)
};

std::string protocol_name(Protocol p);

/// Inverse of protocol_name plus the short CLI spellings used by the
/// tools and benches ("wt", "broadcast", "update", ...). Throws on an
/// unknown name, listing the accepted spellings.
Protocol protocol_from_name(const std::string& s);

/// Hard cap on the simulator's PE count: the PE ids a packed MemRef can
/// name (trace/memref.h), since a PE no trace can drive only ever holds
/// an empty cache. Below 65 PEs the sharing directory uses flat u64
/// masks (the zero-cost fast path); above, the multi-word PeSet
/// representation (cache/peset.h, docs/DESIGN.md §11).
inline constexpr unsigned kMaxPes = kMaxTracePes;

/// Validates a PE count against the simulator's limit (1..kMaxPes) and
/// a loaded trace's PE span (ChunkedTrace::num_pes(), `trace_pes`):
/// every reference's PE needs a cache. The CLI and the server check
/// this before any replay. Returns `pes`.
unsigned check_pes(unsigned pes, unsigned trace_pes);

/// Optional shared second-level cache between the snooping bus and
/// memory (docs/DESIGN.md §9). The paper models a single flat private
/// cache per PE; every machine that ran this style of system at scale
/// had a deeper hierarchy, and the L2 opens a new sweep dimension on
/// top of the Figure-4 apparatus. size_words == 0 (the default) means
/// no L2 — the flat paper model, bit-identical to the pre-hierarchy
/// simulator.
struct L2Config {
  /// How the L2 relates to the private L1s above it.
  enum class Inclusion : u8 {
    /// Every valid L1 line is present in the L2; evicting an L2 line
    /// back-invalidates it from all L1s (dirty L1 data joins the
    /// memory writeback). The directory can then filter snoops with
    /// L2-resident state only.
    Inclusive,
    /// L1 and L2 contents are independent; the L2 never touches L1
    /// state, so bus-side traffic is identical to the flat model.
    NonInclusive,
  };

  u32 size_words = 0;  ///< total L2 capacity; 0 = no L2 (flat model)
  u32 ways = 8;        ///< set associativity; 0 = fully associative
  Inclusion inclusion = Inclusion::Inclusive;
  /// Extra PE wait cycles for a demand fill served by the L2 (on top
  /// of the bus transfer); a fill that misses to memory pays
  /// TimingParams::mem_extra_cycles instead.
  u32 hit_extra_cycles = 0;

  bool enabled() const { return size_words > 0; }
  friend bool operator==(const L2Config&, const L2Config&) = default;
};

std::string inclusion_name(L2Config::Inclusion inc);

struct CacheConfig {
  Protocol protocol = Protocol::WriteInBroadcast;
  u32 size_words = 1024;     ///< total capacity per PE cache
  u32 line_words = 4;        ///< four-word lines throughout the paper
  bool write_allocate = true;
  /// Set associativity; 0 = fully associative (the paper's model).
  /// Real machines of the era were direct-mapped or 2/4-way — the
  /// associativity ablation quantifies how idealised the paper's
  /// fully-associative perfect-LRU assumption is.
  u32 ways = 0;
  /// Shared L2 below the bus; disabled by default (paper's flat model).
  L2Config l2;

  u32 num_lines() const { return size_words / line_words; }
  u32 num_sets() const {
    u32 w = (ways == 0) ? num_lines() : ways;
    return num_lines() / w;
  }
  bool fully_associative() const { return ways == 0 || ways >= num_lines(); }

  /// Throws Error, naming the field, unless the simulator can build
  /// this geometry exactly as asked, for the L1 and (when enabled) the
  /// L2: a positive size that is a multiple of a non-zero line size,
  /// and ways that are 0, at least the line count, or a divisor of it.
  /// Any other `ways` would leave slots unused and quietly simulate a
  /// smaller cache than the size reports.
  void check_geometry() const;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// The paper's Figure-4 policy: no-write-allocate for small caches,
/// write-allocate from 512 words up (hybrid switches at 1024).
inline bool paper_write_allocate(Protocol p, u32 size_words) {
  u32 threshold = (p == Protocol::Hybrid) ? 1024 : 512;
  return size_words >= threshold;
}

/// The paper's standard measurement point — 4-word lines, Figure-4
/// allocation policy — shared by the reports and benches that quote
/// "1024-word caches" numbers.
inline CacheConfig paper_cache_config(Protocol p, u32 size_words = 1024) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = size_words;
  cfg.line_words = 4;
  cfg.write_allocate = paper_write_allocate(p, size_words);
  return cfg;
}

/// The standard hierarchy measurement point — the paper point plus a
/// 4096-word 8-way shared L2 with a 2-cycle hit latency — shared by
/// the golden corpus and pipebench's sweep workload (the L2 points and
/// `cache.hier_refs_per_s.*`) so they keep describing the same
/// configuration. Pair its hit_extra_cycles with a larger
/// TimingParams::mem_extra_cycles when timing it, or the L2 would look
/// slower than memory.
inline CacheConfig paper_hier_config(
    Protocol p = Protocol::WriteInBroadcast,
    L2Config::Inclusion inc = L2Config::Inclusion::Inclusive) {
  CacheConfig cfg = paper_cache_config(p, 1024);
  cfg.l2.size_words = 4096;
  cfg.l2.ways = 8;
  cfg.l2.inclusion = inc;
  cfg.l2.hit_extra_cycles = 2;
  return cfg;
}

}  // namespace rapwam
