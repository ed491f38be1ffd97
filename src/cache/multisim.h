// Multiprocessor coherent-cache simulator.
//
// Replays a memory-reference trace (global interleaved order) through
// one cache per PE and accounts bus traffic in words, per the paper's
// metric: traffic ratio = words moved on the bus / words demanded by
// the processors. Implements the five protocols of §3.1, with an
// optional shared L2 between the bus and memory (cfg.l2, docs/DESIGN.md
// §9).
//
// Each protocol handler returns a StepOutcome: what its one reference
// put on the bus. Every replay runs one loop (docs/DESIGN.md §6): it
// calls the handler, routes the outcome through the L2 when there is
// one, adds a non-empty outcome to TrafficStats, and hands it to an
// observer — nothing for a plain replay, the per-reference result for
// step(), the clock, bus and write-buffer model for TimedReplay
// (src/timing). The protocol, the directory representation and the
// L2's presence are chosen once per batch, and the batch's references,
// reads and writes are counted once.
//
// Coherence bookkeeping is directory-based (docs/DESIGN.md §6): a
// single hash table maps each cached line tag to a packed entry of
// three per-PE masks (holders / dirty owners / exclusive owners).
// Snoop queries — others_hold, dirty_holder, invalidate_others, and
// the miss-supply transaction (dirty-owner flush + exclusive
// demotion) — are O(1) bit operations on that entry, independent of
// the PE count, and invalidations walk only the actual holder set. A
// line's sole-holder hint (Line::sole) lets a write-through or Hybrid
// write skip the query when no other PE can hold the line. A
// cross-checked naive broadcast implementation is retained in
// cache/refsim.h for differential testing.
//
// The masks come in two representations (docs/DESIGN.md §11): raw u64
// words — the flat fast path, selected for <= 64-PE simulators — and
// multi-word PeSet masks (cache/peset.h) for larger machines, up to
// kMaxPes. The protocol handlers are templated over the entry type, so
// both paths run the identical transition logic;
// tests/test_widepe_diff.cpp pins them against each other and against
// the broadcast reference simulator.
#pragma once

#include <optional>
#include <type_traits>
#include <vector>

#include "cache/cache.h"
#include "cache/peset.h"
#include "support/flat_table.h"
#include "trace/chunks.h"

namespace rapwam {

/// What one reference did on the bus, as its protocol handler (and the
/// L2, when there is one) reports it. Every bus word is in exactly one
/// field; TrafficStats::add sums the record into the counters, and
/// TimedReplay times it.
struct StepOutcome {
  /// Who supplied the line on a miss fill / read-for-ownership.
  enum class Supplier : u8 { None, Memory, Cache, L2 };

  bool miss = false;
  bool violation = false;    ///< hybrid: a Table-1 coherence violation
  bool l2_hit = false;       ///< the fetch was served by the shared L2
  u32 fetch_words = 0;       ///< line fill from memory (or the L2)
  u32 flush_words = 0;       ///< line supplied by a dirty owner's cache
  u32 writeback_words = 0;   ///< dirty victim written back
  u32 writethrough_words = 0;
  u32 update_words = 0;
  u32 invalidations = 0;     ///< invalidation broadcasts (1 word each)
  u32 back_inval_words = 0;  ///< inclusive-L2 back-invalidation broadcasts
                             ///< and the dirty L1 data they flushed
  u64 victim_tag = 0;        ///< the dirty victim's tag, if writeback_words

  /// Total words this reference put on the bus.
  u64 bus_words() const {
    return u64(fetch_words) + flush_words + writeback_words + writethrough_words +
           update_words + invalidations + back_inval_words;
  }
  /// Words the PE must wait for (line fetch or flush).
  u64 demand_words() const { return u64(fetch_words) + flush_words; }
  /// Fire-and-forget words: write-throughs, update and invalidation
  /// broadcasts, evict writebacks, back-invalidations.
  u64 posted_words() const { return bus_words() - demand_words(); }
  /// A hit that changed no counter: no miss, no violation, no bus word.
  /// Most references are; the replay loop adds only the others.
  bool empty() const { return !miss && !violation && bus_words() == 0; }
  Supplier supplier() const {
    if (flush_words) return Supplier::Cache;
    if (fetch_words) return l2_hit ? Supplier::L2 : Supplier::Memory;
    return Supplier::None;
  }
};

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

  // Hierarchy counters (all zero without an L2). The L2 sits between
  // the bus and memory: the bus-side counters above are unchanged by
  // it, and these decompose where memory-side traffic actually went.
  u64 l2_hits = 0;           ///< line fills served by the shared L2
  u64 l2_misses = 0;         ///< line fills that went through to memory
  u64 mem_fetch_words = 0;   ///< L2 miss fills fetched from memory
  u64 mem_writeback_words = 0;  ///< dirty L2 evictions written to memory
  u64 mem_word_writes = 0;   ///< through/update words that missed the L2
  u64 l2_back_invalidations = 0;  ///< inclusive-L2 victim back-invalidation
                                  ///< broadcasts (1 bus word each)
  u64 l2_back_inval_flush_words = 0;  ///< dirty L1 data flushed by back-invalidation

  /// Adds what one reference did on the bus. The replay loop counts
  /// refs, reads and writes once per batch, and the L2 model keeps its
  /// memory-side counters itself.
  void add(const StepOutcome& o) {
    misses += o.miss;
    bus_words += o.bus_words();
    fetch_words += o.fetch_words;
    writeback_words += o.writeback_words;
    writethrough_words += o.writethrough_words;
    invalidations += o.invalidations;
    update_words += o.update_words;
    flush_words += o.flush_words;
    coherence_violations += o.violation;
  }

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

/// Sharing-directory mask representation (docs/DESIGN.md §11). Auto
/// picks Flat for <= 64 PEs (the zero-cost fast path) and Wide above;
/// the explicit values exist for the differential suites, which force
/// Wide at small PE counts to pin it bit-identical to Flat.
enum class DirRep : u8 { Auto, Flat, Wide };

class MultiCacheSim {
 public:
  MultiCacheSim(const CacheConfig& cfg, unsigned num_pes,
                DirRep rep = DirRep::Auto);

  /// Runs one reference through the replay loop and reports what it
  /// did. `r` must fit a packed trace record (40-bit address).
  StepOutcome step(const MemRef& r);
  void replay(const u64* packed, std::size_t n);
  void replay(const std::vector<u64>& packed) { replay(packed.data(), packed.size()); }
  /// Replays shared immutable chunk storage in place (no flattening).
  void replay(const ChunkedTrace& t) {
    t.for_each_chunk([this](const u64* p, std::size_t n) { replay(p, n); });
  }
  /// The one replay loop: runs each reference's protocol handler, then
  /// the L2 model when there is an L2, adds a non-empty outcome to
  /// stats(), and calls obs(ref, outcome). The protocol, the directory
  /// representation and the L2's presence are chosen once per batch,
  /// so no reference pays an indirect call.
  template <typename Obs>
  void replay(const u64* packed, std::size_t n, Obs&& obs) {
    if (wide_) replay_protocol<WideDirEntry>(packed, n, obs);
    else replay_protocol<DirEntry>(packed, n, obs);
  }

  const TrafficStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }
  const Cache& cache(unsigned pe) const { return caches_[pe]; }
  unsigned num_caches() const { return static_cast<unsigned>(caches_.size()); }
  /// True when the multi-word PeSet directory is active (num_pes > 64,
  /// or forced by DirRep::Wide for differential testing).
  bool wide_directory() const { return wide_; }
  bool l2_enabled() const { return l2_.has_value(); }

  /// Protocol coherence invariants (tests): at most one Dirty holder
  /// per line, and a Dirty/Exclusive line has no other holders.
  /// Computed from the cache contents alone, independent of the
  /// directory, so it double-checks directory-driven transitions.
  bool invariants_ok() const;

  /// Directory/cache cross-check (tests): the sharing directory's
  /// masks must exactly mirror the lines each cache holds, and every
  /// line with the sole-holder hint must be its tag's only holder.
  bool directory_consistent() const;

  /// Inclusion invariant (tests): with an inclusive L2, every valid L1
  /// line is present in the L2 — in particular, back-invalidation left
  /// no stale L1 copies behind. Vacuously true otherwise.
  bool inclusion_ok() const;

  /// Checkpoint serialization (docs/DESIGN.md §12): traffic counters,
  /// every PE cache (semantic per-set LRU state), the sharing
  /// directory in whichever representation is active, and the L2.
  /// Determinism note: hash-table layout and PeSet capacities are NOT
  /// captured — they are rebuilt on restore and are unobservable to
  /// the replay (no stats or transition reads iteration order), so a
  /// restored simulator produces bit-identical TrafficStats from the
  /// same resume point.
  void save_state(ByteWriter& w) const;
  /// Rebuilds from a save_state stream into a freshly constructed
  /// simulator of the SAME configuration (cfg, PE count, directory
  /// representation, L2). Throws Error on malformed input or a
  /// representation or L2 mismatch; callers discard the instance on
  /// failure.
  void restore_state(ByteReader& r);

 private:
  /// One sharing-directory entry, keyed by line tag; M is the per-PE
  /// mask representation (cache/peset.h). Bit i refers to PE i.
  template <typename M>
  struct DirEntryT {
    M holders{};  ///< PEs with the line in any valid state
    M dirty{};    ///< PEs holding it Dirty
    M excl{};     ///< PEs holding it Exclusive
  };
  /// Flat fast-path entry (<= 64 PEs).
  using DirEntry = DirEntryT<u64>;
  /// Multi-word entry for > 64-PE machines (and forced-wide tests).
  using WideDirEntry = DirEntryT<PeSet>;

  /// The protocol switch of the replay loop, per directory entry type.
  template <typename E, typename Obs>
  void replay_protocol(const u64* packed, std::size_t n, Obs& obs) {
    switch (cfg_.protocol) {
      case Protocol::WriteThrough:
        return replay_loop<&MultiCacheSim::access_write_through<E>>(packed, n, obs);
      case Protocol::Copyback:
        return replay_loop<&MultiCacheSim::access_copyback<E>>(packed, n, obs);
      case Protocol::WriteInBroadcast:
        return replay_loop<&MultiCacheSim::access_write_in_broadcast<E>>(packed, n, obs);
      case Protocol::WriteThroughBroadcast:
        return replay_loop<&MultiCacheSim::access_write_update_broadcast<E>>(packed, n, obs);
      case Protocol::Hybrid:
        return replay_loop<&MultiCacheSim::access_hybrid<E>>(packed, n, obs);
    }
  }
  /// One function per handler loop: when the compiler folded an
  /// observer's twenty loops into one replay(), flat replay took 4-21%
  /// longer per reference (docs/DESIGN.md §6).
  /// References, reads and writes are counted in locals and added once
  /// per batch: the handlers' stores through Line* and their
  /// out-of-line calls would otherwise keep every counter in memory.
  template <auto Handler, typename Obs>
  [[gnu::noinline]] void replay_loop(const u64* packed, std::size_t n, Obs& obs) {
    const std::size_t pes = caches_.size();
    auto loop = [&](auto with_l2) {
      std::size_t i = 0;
      u64 writes = 0;
      for (; i < n; ++i) {
        MemRef r = MemRef::unpack(packed[i]);
        if (r.pe >= pes) [[unlikely]] break;
        writes += r.write;
        StepOutcome o = (this->*Handler)(r);
        if constexpr (decltype(with_l2)::value) l2_access(r, o);
        if (!o.empty()) stats_.add(o);
        obs(r, o);
      }
      stats_.refs += i;
      stats_.writes += writes;
      stats_.reads += i - writes;
      RW_CHECK(i == n, "trace reference PE id >= simulator PE count");
    };
    if (l2_) loop(std::true_type{});
    else loop(std::false_type{});
  }

  /// addr / line_words: a shift for power-of-two lines (the paper's
  /// 4 words); check_geometry accepts any other size, which divides.
  u64 tag_of(u64 addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / cfg_.line_words;
  }
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
  /// A write's invalidation of every other copy (write-through, Hybrid
  /// global writes), where `l` is the writer's own copy or null. A copy
  /// with the sole-holder hint has no other copies to invalidate and
  /// skips the directory; a copy without it gets it afterwards.
  template <typename E>
  void write_invalidate(unsigned pe, u64 tag, Line* l) {
    if (l && l->sole) return;
    invalidate_others<E>(pe, tag);
    if (l) l->sole = true;
  }
  /// Broadcast-protocol miss transaction, one directory find: a dirty
  /// owner supplies the line (L flush words, owner demoted to Shared)
  /// or memory does (L fetch words), remote Exclusive copies become
  /// Shared. Returns true if other caches still hold the line.
  template <typename E>
  bool broadcast_miss_supply(unsigned pe, u64 tag, StepOutcome& o);
  /// Inserts a line; a dirty victim's writeback goes into `o`. The
  /// only path that adds a holder, so it keeps the sole-holder hints:
  /// the new line gets one when no other PE holds the tag, and a PE
  /// that held it alone loses its hint.
  template <typename E>
  void fill(unsigned pe, u64 tag, LineState st, StepOutcome& o);
  /// State transition on a held line, mirrored into the directory. An
  /// unchanged state returns at once: the directory already mirrors
  /// the line (directory_consistent()).
  template <typename E>
  void set_state(unsigned pe, Line* l, LineState st) {
    if (l->state != st) change_state<E>(pe, l, st);
  }
  template <typename E>
  void change_state(unsigned pe, Line* l, LineState st);
  template <typename E>
  void dir_remove(unsigned pe, u64 tag);

  // Per-protocol reference handlers, defined below the class; E selects
  // the directory flavour.
  template <typename E>
  StepOutcome access_write_through(const MemRef& r);
  template <typename E>
  StepOutcome access_copyback(const MemRef& r);
  template <typename E>
  StepOutcome access_write_in_broadcast(const MemRef& r);
  template <typename E>
  StepOutcome access_write_update_broadcast(const MemRef& r);
  template <typename E>
  StepOutcome access_hybrid(const MemRef& r);

  // The L2 model (hierarchy.cpp, docs/DESIGN.md §9).

  /// Routes the memory side of reference `r`, whose handler reported
  /// `o`, through the L2 instead of memory. Marks an L2-served fetch in
  /// `o` and adds any back-invalidation bus words to it.
  void l2_access(const MemRef& r, StepOutcome& o);
  /// Allocates `tag` into the L2, handling the displaced victim:
  /// back-invalidation when inclusive, and the memory writeback when
  /// the victim (or a back-invalidated dirty L1 copy) carries the only
  /// current data.
  void l2_fill(u64 tag, LineState st, StepOutcome& o);
  /// Kills every L1 copy of `tag` (directory-precise when coherent).
  /// Returns true if any copy was dirty — that data joins the victim's
  /// memory writeback.
  bool back_invalidate(u64 tag, StepOutcome& o);
  template <typename E>
  bool back_invalidate_dir(u64 tag, StepOutcome& o);

  /// Directory/cache cross-check for the active representation.
  template <typename E>
  bool directory_consistent_t() const;
  /// Directory serialization for entry type E (multisim.cpp
  /// instantiates both flavours).
  template <typename E>
  void save_directory(ByteWriter& w) const;
  template <typename E>
  void restore_directory(ByteReader& r);

  CacheConfig cfg_;
  int line_shift_ = -1;   ///< log2(line_words), or -1: not a power of two
  bool coherent_ = true;  ///< false for Copyback: no directory upkeep
  bool wide_ = false;     ///< wide (PeSet) directory active
  bool inclusive_ = false;  ///< the L2 is inclusive
  std::vector<Cache> caches_;
  /// The sharing directory: tag -> entry, sized once to 2x the total
  /// line capacity of all caches (the number of distinct tags
  /// simultaneously cached is bounded by the number of line slots),
  /// so it never rehashes and stays at most half full. Exactly one of
  /// the two representations is initialised (the other stays at its
  /// empty 16-bucket default).
  FlatTagMap<DirEntry> dir_;
  FlatTagMap<WideDirEntry> wdir_;
  std::optional<Cache> l2_;  ///< engaged iff cfg.l2.enabled()
  TrafficStats stats_;
};

// --- protocol handlers ------------------------------------------------------
//
// Defined here and always inlined, so that in every replay loop, flat,
// stepped or timed, a handler's StepOutcome stays in registers. The
// directory helpers they call are instantiated in multisim.cpp.

// --- conventional coherent write-through --------------------------------

template <typename E>
[[gnu::always_inline]] inline StepOutcome
MultiCacheSim::access_write_through(const MemRef& r) {
  StepOutcome o;
  u64 tag = tag_of(r.addr);
  Line* l = caches_[r.pe].lookup(tag);
  if (!r.write) {
    if (l) return o;
    o.miss = true;
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Shared, o);
    return o;
  }
  // Every write goes to memory; snooping caches invalidate their copy.
  o.writethrough_words = 1;
  write_invalidate<E>(r.pe, tag, l);
  if (l) return o;  // write hit: line updated in place
  o.miss = true;
  if (cfg_.write_allocate) {
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Shared, o);
  }
  return o;
}

// --- non-coherent copy-back (sequential baseline) ------------------------

template <typename E>
[[gnu::always_inline]] inline StepOutcome
MultiCacheSim::access_copyback(const MemRef& r) {
  StepOutcome o;
  u64 tag = tag_of(r.addr);
  Line* l = caches_[r.pe].lookup(tag);
  if (l) {
    if (r.write) l->state = LineState::Dirty;  // non-coherent: no directory
    return o;
  }
  o.miss = true;
  if (!r.write) {
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Exclusive, o);
  } else if (cfg_.write_allocate) {
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Dirty, o);
  } else {
    o.writethrough_words = 1;
  }
  return o;
}

// --- write-in broadcast (invalidate, copy-back, cache-to-cache) ----------

template <typename E>
[[gnu::always_inline]] inline StepOutcome
MultiCacheSim::access_write_in_broadcast(const MemRef& r) {
  StepOutcome o;
  u64 tag = tag_of(r.addr);
  Line* l = caches_[r.pe].lookup(tag);

  if (!r.write) {
    if (l) return o;
    o.miss = true;
    fill<E>(r.pe, tag,
            broadcast_miss_supply<E>(r.pe, tag, o) ? LineState::Shared
                                                   : LineState::Exclusive,
            o);
    return o;
  }

  if (l) {
    switch (l->state) {
      case LineState::Dirty:
        return o;
      case LineState::Exclusive:
        set_state<E>(r.pe, l, LineState::Dirty);
        return o;
      case LineState::Shared:
        // One bus word-time to broadcast the invalidation.
        o.invalidations = 1;
        invalidate_others<E>(r.pe, tag);
        set_state<E>(r.pe, l, LineState::Dirty);
        return o;
      case LineState::Invalid:
        break;
    }
  }
  o.miss = true;
  if (cfg_.write_allocate) {
    // Read-for-ownership: fetch the line (from a dirty owner or from
    // memory) and invalidate all other copies in the same transaction.
    if (other_dirty<E>(r.pe, tag)) o.flush_words = L();
    else o.fetch_words = L();
    invalidate_others<E>(r.pe, tag);
    fill<E>(r.pe, tag, LineState::Dirty, o);
  } else {
    // Word write to memory plus invalidation of all copies.
    o.writethrough_words = 1;
    invalidate_others<E>(r.pe, tag);
  }
  return o;
}

// --- write-through broadcast (update) -------------------------------------

template <typename E>
[[gnu::always_inline]] inline StepOutcome
MultiCacheSim::access_write_update_broadcast(const MemRef& r) {
  StepOutcome o;
  u64 tag = tag_of(r.addr);
  Line* l = caches_[r.pe].lookup(tag);

  if (!r.write) {
    if (l) return o;
    o.miss = true;
    fill<E>(r.pe, tag,
            broadcast_miss_supply<E>(r.pe, tag, o) ? LineState::Shared
                                                   : LineState::Exclusive,
            o);
    return o;
  }

  if (l) {
    if (l->state == LineState::Shared && others_hold<E>(r.pe, tag)) {
      // Broadcast the word; sharers and memory update in place.
      o.update_words = 1;
    } else {
      // Private, or the last sharer: private again.
      set_state<E>(r.pe, l, LineState::Dirty);
    }
    return o;
  }
  o.miss = true;
  if (cfg_.write_allocate) {
    bool shared = broadcast_miss_supply<E>(r.pe, tag, o);
    fill<E>(r.pe, tag, shared ? LineState::Shared : LineState::Dirty, o);
    if (shared) o.update_words = 1;
  } else {
    o.update_words = 1;  // word to memory + snooping sharers
  }
  return o;
}

// --- hybrid (tag-driven) ---------------------------------------------------

template <typename E>
[[gnu::always_inline]] inline StepOutcome
MultiCacheSim::access_hybrid(const MemRef& r) {
  StepOutcome o;
  u64 tag = tag_of(r.addr);
  Line* l = caches_[r.pe].lookup(tag);
  bool global = traits_of(r.cls).locality == Locality::Global;

  if (!r.write) {
    if (l) return o;
    o.miss = true;
    // A line may mix localities (e.g. environment control words and
    // permanent variables): memory is kept current for its *global*
    // words by write-through, so fetching from memory is always safe
    // for global reads. Only a local-tagged read of a line that is
    // dirty in another cache is a Table-1 violation.
    o.violation = !global && dirty_holder<E>(r.pe, tag) >= 0;
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Shared, o);
    return o;
  }

  if (global) {
    // Write-through; remote copies are invalidated by the snooped
    // memory write (no extra bus words). Own copy updated in place.
    o.writethrough_words = 1;
    write_invalidate<E>(r.pe, tag, l);
    if (l) return o;
    o.miss = true;
    if (cfg_.write_allocate) {
      o.fetch_words = L();
      fill<E>(r.pe, tag, LineState::Shared, o);
    }
    return o;
  }

  // Local data: copy-back. Another PE modifying this PE's local line
  // would be a violation; mere clean copies (from global words in the
  // same line) are harmless. A sole holder has no other PE to ask.
  o.violation = !(l && l->sole) && dirty_holder<E>(r.pe, tag) >= 0;
  if (l) {
    set_state<E>(r.pe, l, LineState::Dirty);
    return o;
  }
  o.miss = true;
  if (cfg_.write_allocate) {
    o.fetch_words = L();
    fill<E>(r.pe, tag, LineState::Dirty, o);
  } else {
    o.writethrough_words = 1;
  }
  return o;
}

/// TrafficStats field-by-field serialization for simulator
/// checkpoints. The static_assert in
/// multisim.cpp pins the field count: adding a counter without
/// updating these (and bumping kCheckpointVersion) fails the build.
void save_traffic(ByteWriter& w, const TrafficStats& s);
TrafficStats load_traffic(ByteReader& r);

}  // namespace rapwam
