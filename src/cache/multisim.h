// Multiprocessor coherent-cache simulator.
//
// Replays a memory-reference trace (global interleaved order) through
// one cache per PE and accounts bus traffic in words, per the paper's
// metric: traffic ratio = words moved on the bus / words demanded by
// the processors. Implements the five protocols of §3.1.
//
// Coherence bookkeeping is directory-based (docs/DESIGN.md §6): a
// single hash table maps each cached line tag to a packed entry of
// three per-PE masks (holders / dirty owners / exclusive owners).
// Snoop queries that used to broadcast-probe every other PE's cache —
// others_hold, dirty_holder, invalidate_others, and the miss-supply
// transaction (dirty-owner flush + exclusive demotion) — are O(1) bit
// operations on that entry, independent of the PE count, and
// invalidations walk only the actual holder set. A cross-checked
// naive broadcast implementation is retained in cache/refsim.h for
// differential testing.
//
// The masks come in two representations (docs/DESIGN.md §11): raw u64
// words — the flat fast path, selected for <= 64-PE simulators, byte-
// identical to the pre-PR-7 directory — and multi-word PeSet masks
// (cache/peset.h) for larger machines, up to kMaxPes. The protocol
// handlers are templated over the entry type, so both paths run the
// identical transition logic; tests/test_widepe_diff.cpp pins them
// against each other and against the broadcast reference simulator.
#pragma once

#include <type_traits>
#include <vector>

#include "cache/cache.h"
#include "cache/peset.h"
#include "support/flat_table.h"
#include "trace/chunks.h"

namespace rapwam {

struct TrafficStats {
  u64 refs = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 misses = 0;
  u64 bus_words = 0;         ///< total words on the bus
  u64 fetch_words = 0;       ///< line fills (memory or cache supplier)
  u64 writeback_words = 0;   ///< dirty evictions
  u64 writethrough_words = 0;///< single-word writes to memory
  u64 invalidations = 0;     ///< invalidation broadcasts (1 word-time each)
  u64 update_words = 0;      ///< write-update broadcasts
  u64 flush_words = 0;       ///< dirty lines supplied cache-to-cache
  u64 coherence_violations = 0;  ///< hybrid: local-tagged line shared

  // Hierarchy counters (cache/hierarchy.h; all zero in the flat model).
  // The L2 sits between the bus and memory: the bus-side counters above
  // are unchanged by it, and these decompose where memory-side traffic
  // actually went.
  u64 l2_hits = 0;           ///< line fills served by the shared L2
  u64 l2_misses = 0;         ///< line fills that went through to memory
  u64 mem_fetch_words = 0;   ///< L2 miss fills fetched from memory
  u64 mem_writeback_words = 0;  ///< dirty L2 evictions written to memory
  u64 mem_word_writes = 0;   ///< through/update words that missed the L2
  u64 l2_back_invalidations = 0;  ///< inclusive-L2 victim back-invalidation
                                  ///< broadcasts (1 bus word each)
  u64 l2_back_inval_flush_words = 0;  ///< dirty L1 data flushed by back-invalidation

  double traffic_ratio() const {
    return refs ? static_cast<double>(bus_words) / static_cast<double>(refs) : 0.0;
  }
  double miss_ratio() const {
    return refs ? static_cast<double>(misses) / static_cast<double>(refs) : 0.0;
  }
  /// Words that actually reached memory. In the flat model every
  /// memory-side word does (fetch + writeback + through/update); with
  /// an L2, only what the L2 passed through.
  u64 mem_words() const {
    return mem_fetch_words + mem_writeback_words + mem_word_writes;
  }
  /// mem_words per processor reference — the hierarchy counterpart of
  /// traffic_ratio, measuring what the L2 failed to capture.
  double mem_traffic_ratio() const {
    return refs ? static_cast<double>(mem_words()) / static_cast<double>(refs) : 0.0;
  }
  double l2_miss_ratio() const {
    u64 fills = l2_hits + l2_misses;
    return fills ? static_cast<double>(l2_misses) / static_cast<double>(fills) : 0.0;
  }

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

/// Outcome of one reference, reported by MultiCacheSim::step() for
/// timing layers (src/timing) that need to know what the transaction
/// did to the bus, not just the aggregate counters.
struct StepOutcome {
  /// Who supplied the line on a miss fill / read-for-ownership. L2 is
  /// only reported by HierCacheSim (cache/hierarchy.h); the flat
  /// simulator's memory-side fills are always Memory.
  enum class Supplier : u8 { None, Memory, Cache, L2 };

  bool miss = false;
  Supplier supplier = Supplier::None;
  u64 bus_words = 0;     ///< total words this reference put on the bus
  u64 demand_words = 0;  ///< words the PE must wait for (line fetch/flush)
  u64 posted_words = 0;  ///< fire-and-forget words: write-throughs, update
                         ///< and invalidation broadcasts, evict writebacks
  u32 invalidations = 0; ///< invalidation broadcasts issued

  bool hit() const { return !miss; }
};

/// Sharing-directory mask representation (docs/DESIGN.md §11). Auto
/// picks Flat for <= 64 PEs (the zero-cost fast path) and Wide above;
/// the explicit values exist for the differential suites, which force
/// Wide at small PE counts to pin it bit-identical to Flat.
enum class DirRep : u8 { Auto, Flat, Wide };

class MultiCacheSim {
 public:
  MultiCacheSim(const CacheConfig& cfg, unsigned num_pes,
                DirRep rep = DirRep::Auto);

  void access(const MemRef& r);
  /// Per-reference step API: same transition/accounting as access(),
  /// and additionally reports what this one reference did (hit/miss,
  /// supplier, words the PE waits for vs. posts). TimedReplay drives
  /// this in global trace order, so stats() after stepping a whole
  /// trace is bit-identical to replay() of the same trace.
  StepOutcome step(const MemRef& r);
  /// Batched fast path: dispatches on the protocol once and replays
  /// the packed stream through the selected handler (no per-reference
  /// protocol switch; references are unpacked once, in place).
  void replay(const u64* packed, std::size_t n);
  void replay(const std::vector<u64>& packed) { replay(packed.data(), packed.size()); }
  /// Replays shared immutable chunk storage in place (no flattening).
  void replay(const ChunkedTrace& t) {
    t.for_each_chunk([this](const u64* p, std::size_t n) { replay(p, n); });
  }

  const TrafficStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }
  const Cache& cache(unsigned pe) const { return caches_[pe]; }
  unsigned num_caches() const { return static_cast<unsigned>(caches_.size()); }
  /// True when the multi-word PeSet directory is active (num_pes > 64,
  /// or forced by DirRep::Wide for differential testing).
  bool wide_directory() const { return wide_; }

  /// Protocol coherence invariants (tests): at most one Dirty holder
  /// per line, and a Dirty/Exclusive line has no other holders.
  /// Computed from the cache contents alone, independent of the
  /// directory, so it double-checks directory-driven transitions.
  bool invariants_ok() const;

  /// Directory/cache cross-check (tests): the sharing directory's
  /// masks must exactly mirror the lines each cache holds.
  bool directory_consistent() const;

  /// Checkpoint serialization (docs/DESIGN.md §12): traffic counters,
  /// every PE cache (semantic per-set LRU state), and the sharing
  /// directory in whichever representation is active. Determinism note:
  /// hash-table layout and PeSet capacities are NOT captured — they are
  /// rebuilt on restore and are unobservable to the replay (no stats or
  /// transition reads iteration order), so a restored simulator
  /// produces bit-identical TrafficStats from the same resume point.
  void save_state(ByteWriter& w) const;
  /// Rebuilds from a save_state stream into a freshly constructed
  /// simulator of the SAME configuration (cfg, PE count, directory
  /// representation). Throws Error on malformed input or representation
  /// mismatch; callers discard the instance on failure.
  void restore_state(ByteReader& r);

 protected:
  // Protected rather than private: HierCacheSim (cache/hierarchy.h)
  // layers a shared L2 on top by running the unchanged handlers below
  // and then modelling the memory side of each reference — it needs
  // the caches, the sharing directory (for directory-precise
  // back-invalidation) and the counters, but overrides nothing.

  /// One sharing-directory entry, keyed by line tag; M is the per-PE
  /// mask representation (cache/peset.h). Bit i refers to PE i.
  template <typename M>
  struct DirEntryT {
    M holders{};  ///< PEs with the line in any valid state
    M dirty{};    ///< PEs holding it Dirty
    M excl{};     ///< PEs holding it Exclusive
  };
  /// Flat fast-path entry (<= 64 PEs) — the pre-PR-7 representation.
  using DirEntry = DirEntryT<u64>;
  /// Multi-word entry for > 64-PE machines (and forced-wide tests).
  using WideDirEntry = DirEntryT<PeSet>;

  u64 tag_of(u64 addr) const { return addr / cfg_.line_words; }
  u64 L() const { return cfg_.line_words; }

  /// The active directory for entry type E: dir_ for the flat fast
  /// path, wdir_ for the wide one. Exactly one is ever populated.
  template <typename E>
  FlatTagMap<E>& dir() {
    if constexpr (std::is_same_v<E, DirEntry>) return dir_;
    else return wdir_;
  }
  template <typename E>
  const FlatTagMap<E>& dir() const {
    return const_cast<MultiCacheSim*>(this)->dir<E>();
  }

  /// Shared per-reference preamble of access() and replay_loop().
  void count_ref(const MemRef& r) {
    RW_CHECK(r.pe < caches_.size(), "trace reference PE id >= simulator PE count");
    ++stats_.refs;
    if (r.write) ++stats_.writes; else ++stats_.reads;
  }

  /// Mirrors PE `pe`'s line state into a directory entry's masks.
  template <typename E>
  static void dir_set_state_bits(E& e, unsigned pe, LineState st) {
    pe_assign(e.dirty, pe, st == LineState::Dirty);
    pe_assign(e.excl, pe, st == LineState::Exclusive);
  }

  // Directory snoop/upkeep primitives, templated over the entry type
  // so the flat and wide paths share one implementation (multisim.cpp
  // explicitly instantiates both).

  /// True if any cache other than `pe` holds the tag.
  template <typename E>
  bool others_hold(unsigned pe, u64 tag) const;
  template <typename E>
  int dirty_holder(unsigned pe, u64 tag) const;  // -1 if none
  /// True if a cache other than `pe` holds the tag Dirty (the
  /// read-for-ownership supplier check, without materialising the id).
  template <typename E>
  bool other_dirty(unsigned pe, u64 tag) const;
  template <typename E>
  void invalidate_others(unsigned pe, u64 tag);
  /// Broadcast-protocol miss transaction, one directory find: a dirty
  /// owner supplies the line (L flush words, owner demoted to Shared)
  /// or memory does (L fetch words), remote Exclusive copies become
  /// Shared. Returns true if other caches still hold the line.
  template <typename E>
  bool broadcast_miss_supply(unsigned pe, u64 tag);
  template <typename E>
  void fill(unsigned pe, u64 tag, LineState st);
  /// State transition on a held line, mirrored into the directory.
  template <typename E>
  void set_state(unsigned pe, Line* l, LineState st);
  template <typename E>
  void dir_remove(unsigned pe, u64 tag);

  // Per-protocol reference handlers; E selects the directory flavour.
  template <typename E>
  void access_write_through(const MemRef& r);
  template <typename E>
  void access_copyback(const MemRef& r);
  template <typename E>
  void access_write_in_broadcast(const MemRef& r);
  template <typename E>
  void access_write_update_broadcast(const MemRef& r);
  template <typename E>
  void access_hybrid(const MemRef& r);

  /// Runs the protocol-selected handler for one counted reference.
  template <typename E>
  void access_dispatch(const MemRef& r);

  template <void (MultiCacheSim::*Handler)(const MemRef&)>
  void replay_loop(const u64* packed, std::size_t n);
  /// Protocol switch hoisted out of the batch loop, per entry type.
  template <typename E>
  void replay_dispatch(const u64* packed, std::size_t n);

  /// Directory/cache cross-check for the active representation.
  template <typename E>
  bool directory_consistent_t() const;

  CacheConfig cfg_;
  bool coherent_ = true;  ///< false for Copyback: no directory upkeep
  bool wide_ = false;     ///< wide (PeSet) directory active
  std::vector<Cache> caches_;
  /// Tag of the line the most recent fill() displaced dirty, if any.
  /// Reset by the hierarchy layer before each reference so it can
  /// route the writeback into the L2; meaningless (and unread)
  /// otherwise.
  u64 last_evict_tag_ = 0;
  bool last_evict_dirty_ = false;
  /// The sharing directory: tag -> entry, sized once to 2x the total
  /// line capacity of all caches (the number of distinct tags
  /// simultaneously cached is bounded by the number of line slots),
  /// so it never rehashes and stays at most half full. Exactly one of
  /// the two representations is initialised (the other stays at its
  /// empty 16-bucket default).
  /// Directory serialization for entry type E (multisim.cpp
  /// instantiates both flavours).
  template <typename E>
  void save_directory(ByteWriter& w) const;
  template <typename E>
  void restore_directory(ByteReader& r);

  FlatTagMap<DirEntry> dir_;
  FlatTagMap<WideDirEntry> wdir_;
  TrafficStats stats_;
};

/// TrafficStats field-by-field serialization, shared by simulator
/// checkpoints and the sweep journal. The static_assert in
/// multisim.cpp pins the field count: adding a counter without
/// updating these (and bumping kCheckpointVersion) fails the build.
void save_traffic(ByteWriter& w, const TrafficStats& s);
TrafficStats load_traffic(ByteReader& r);

}  // namespace rapwam
