#include "cache/multisim.h"

#include <bit>
#include <unordered_map>

namespace rapwam {

std::string protocol_name(Protocol p) {
  switch (p) {
    case Protocol::WriteThrough: return "write-thru";
    case Protocol::WriteInBroadcast: return "broadcast(write-in)";
    case Protocol::WriteThroughBroadcast: return "broadcast(write-thru)";
    case Protocol::Hybrid: return "hybrid";
    case Protocol::Copyback: return "copyback";
  }
  return "?";
}

Protocol protocol_from_name(const std::string& s) {
  if (s == "write-thru" || s == "wt") return Protocol::WriteThrough;
  if (s == "broadcast" || s == "write-in") return Protocol::WriteInBroadcast;
  if (s == "update" || s == "write-update") return Protocol::WriteThroughBroadcast;
  if (s == "hybrid") return Protocol::Hybrid;
  if (s == "copyback") return Protocol::Copyback;
  fail("unknown protocol: " + s +
       " (write-thru|broadcast|update|hybrid|copyback)");
}

std::string inclusion_name(L2Config::Inclusion inc) {
  return inc == L2Config::Inclusion::Inclusive ? "inclusive" : "non-inclusive";
}

unsigned check_pes(unsigned pes) {
  if (pes < 1 || pes > kMaxPes)
    fail("PE count must be 1.." + std::to_string(kMaxPes) +
         " (the sharing directory's per-PE masks are sized for kMaxPes)");
  return pes;
}

namespace {

void check_level(const char* level, u32 size_words, u32 line_words, u32 ways) {
  if (size_words == 0 || size_words % line_words != 0)
    fail(std::string(level) + " size " + std::to_string(size_words) +
         " words is not a positive multiple of the " +
         std::to_string(line_words) + "-word line");
  u32 lines = size_words / line_words;
  if (ways != 0 && ways < lines && lines % ways != 0)
    fail(std::string(level) + " ways " + std::to_string(ways) +
         " must be 0 (fully associative), at least the " + level + "'s " +
         std::to_string(lines) + " lines, or a divisor of " +
         std::to_string(lines));
}

}  // namespace

void CacheConfig::check_geometry() const {
  if (line_words == 0) fail("cache line size must be at least 1 word");
  check_level("cache", size_words, line_words, ways);
  if (l2.enabled()) check_level("L2", l2.size_words, line_words, l2.ways);
}

MultiCacheSim::MultiCacheSim(const CacheConfig& cfg, unsigned num_pes, DirRep rep)
    : cfg_(cfg) {
  cfg.check_geometry();
  RW_CHECK(num_pes >= 1 && num_pes <= kMaxPes,
           "directory holder masks support 1..kMaxPes PEs");
  RW_CHECK(rep != DirRep::Flat || num_pes <= 64,
           "the flat u64 directory representation caps at 64 PEs");
  wide_ = rep == DirRep::Wide || (rep == DirRep::Auto && num_pes > 64);
  coherent_ = cfg.protocol != Protocol::Copyback;
  caches_.reserve(num_pes);
  for (unsigned i = 0; i < num_pes; ++i) caches_.emplace_back(cfg);
  if (coherent_) {
    if (wide_) wdir_.init(u64(num_pes) * cfg.num_lines());
    else dir_.init(u64(num_pes) * cfg.num_lines());
  }
}

// --- sharing directory ----------------------------------------------------

template <typename E>
bool MultiCacheSim::others_hold(unsigned pe, u64 tag) const {
  const E* e = dir<E>().find(tag);
  return e && pe_any_other(e->holders, pe);
}

template <typename E>
int MultiCacheSim::dirty_holder(unsigned pe, u64 tag) const {
  const E* e = dir<E>().find(tag);
  return e ? pe_first_other(e->dirty, pe) : -1;
}

template <typename E>
bool MultiCacheSim::other_dirty(unsigned pe, u64 tag) const {
  const E* e = dir<E>().find(tag);
  return e && pe_any_other(e->dirty, pe);
}

template <typename E>
void MultiCacheSim::invalidate_others(unsigned pe, u64 tag) {
  E* e = dir<E>().find(tag);
  if (!e) return;
  pe_for_each_other(e->holders, pe,
                    [&](unsigned i) { caches_[i].invalidate(tag); });
  pe_retain_only(e->holders, pe);
  pe_retain_only(e->dirty, pe);
  pe_retain_only(e->excl, pe);
  if (!pe_any(e->holders)) dir<E>().erase(tag);
}

template <typename E>
bool MultiCacheSim::broadcast_miss_supply(unsigned pe, u64 tag) {
  E* e = dir<E>().find(tag);
  if (!e) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    return false;
  }
  int dh = pe_first_other(e->dirty, pe);
  if (dh >= 0) {
    // Owner supplies the line and keeps a shared (clean) copy; memory
    // is updated by the same transaction.
    caches_[static_cast<unsigned>(dh)].probe(tag)->state = LineState::Shared;
    pe_reset(e->dirty, static_cast<unsigned>(dh));
    stats_.flush_words += L();
    stats_.bus_words += L();
  } else {
    stats_.fetch_words += L();
    stats_.bus_words += L();
  }
  pe_for_each_other(e->excl, pe, [&](unsigned i) {
    caches_[i].probe(tag)->state = LineState::Shared;
  });
  pe_retain_only(e->excl, pe);
  return pe_any_other(e->holders, pe);
}

template <typename E>
void MultiCacheSim::dir_remove(unsigned pe, u64 tag) {
  E* e = dir<E>().find(tag);
  if (!e) return;
  pe_reset(e->holders, pe);
  pe_reset(e->dirty, pe);
  pe_reset(e->excl, pe);
  if (!pe_any(e->holders)) dir<E>().erase(tag);
}

template <typename E>
void MultiCacheSim::set_state(unsigned pe, Line* l, LineState st) {
  l->state = st;
  if (!coherent_) return;
  dir_set_state_bits(dir<E>().upsert(l->tag), pe, st);
}

/// Inserts a line, accounting a dirty eviction if one falls out.
template <typename E>
void MultiCacheSim::fill(unsigned pe, u64 tag, LineState st) {
  auto ev = caches_[pe].insert(tag, st);
  if (coherent_) {
    // Order matters: removing the evicted tag first can backward-shift
    // other entries, so the upsert of `tag` must come after it.
    if (ev.valid) dir_remove<E>(pe, ev.line.tag);
    E& e = dir<E>().upsert(tag);
    pe_set(e.holders, pe);
    dir_set_state_bits(e, pe, st);
  }
  if (ev.valid && ev.line.state == LineState::Dirty) {
    stats_.writeback_words += L();
    stats_.bus_words += L();
    last_evict_tag_ = ev.line.tag;
    last_evict_dirty_ = true;
  }
}

template <typename E>
void MultiCacheSim::access_dispatch(const MemRef& r) {
  switch (cfg_.protocol) {
    case Protocol::WriteThrough: access_write_through<E>(r); break;
    case Protocol::Copyback: access_copyback<E>(r); break;
    case Protocol::WriteInBroadcast: access_write_in_broadcast<E>(r); break;
    case Protocol::WriteThroughBroadcast: access_write_update_broadcast<E>(r); break;
    case Protocol::Hybrid: access_hybrid<E>(r); break;
  }
}

void MultiCacheSim::access(const MemRef& r) {
  count_ref(r);
  if (wide_) access_dispatch<WideDirEntry>(r);
  else access_dispatch<DirEntry>(r);
}

StepOutcome MultiCacheSim::step(const MemRef& r) {
  // Every bus_words increment in the handlers is paired with exactly
  // one component counter, so the deltas decompose the transaction.
  const TrafficStats before = stats_;
  access(r);
  StepOutcome o;
  o.miss = stats_.misses != before.misses;
  u64 fetch = stats_.fetch_words - before.fetch_words;
  u64 flush = stats_.flush_words - before.flush_words;
  o.bus_words = stats_.bus_words - before.bus_words;
  o.demand_words = fetch + flush;
  o.posted_words = o.bus_words - o.demand_words;
  o.invalidations = static_cast<u32>(stats_.invalidations - before.invalidations);
  o.supplier = flush ? StepOutcome::Supplier::Cache
                     : (fetch ? StepOutcome::Supplier::Memory
                              : StepOutcome::Supplier::None);
  return o;
}

template <void (MultiCacheSim::*Handler)(const MemRef&)>
void MultiCacheSim::replay_loop(const u64* packed, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r = MemRef::unpack(packed[i]);
    count_ref(r);
    (this->*Handler)(r);
  }
}

template <typename E>
void MultiCacheSim::replay_dispatch(const u64* packed, std::size_t n) {
  switch (cfg_.protocol) {
    case Protocol::WriteThrough:
      replay_loop<&MultiCacheSim::access_write_through<E>>(packed, n);
      break;
    case Protocol::Copyback:
      replay_loop<&MultiCacheSim::access_copyback<E>>(packed, n);
      break;
    case Protocol::WriteInBroadcast:
      replay_loop<&MultiCacheSim::access_write_in_broadcast<E>>(packed, n);
      break;
    case Protocol::WriteThroughBroadcast:
      replay_loop<&MultiCacheSim::access_write_update_broadcast<E>>(packed, n);
      break;
    case Protocol::Hybrid:
      replay_loop<&MultiCacheSim::access_hybrid<E>>(packed, n);
      break;
  }
}

void MultiCacheSim::replay(const u64* packed, std::size_t n) {
  if (wide_) replay_dispatch<WideDirEntry>(packed, n);
  else replay_dispatch<DirEntry>(packed, n);
}

bool MultiCacheSim::invariants_ok() const {
  if (cfg_.protocol == Protocol::Copyback) return true;  // non-coherent
  bool dirty_sole = cfg_.protocol != Protocol::Hybrid;
  std::unordered_map<u64, int> holders, dirty, excl;
  for (const Cache& c : caches_) {
    for (const Line& l : c.lines()) {
      holders[l.tag]++;
      if (l.state == LineState::Dirty) dirty[l.tag]++;
      if (l.state == LineState::Exclusive) excl[l.tag]++;
    }
  }
  for (auto& [tag, n] : dirty) {
    if (n > 1) return false;
    if (dirty_sole && holders[tag] > 1) return false;  // dirty => sole holder
  }
  for (auto& [tag, n] : excl) {
    if (holders[tag] > 1) return false;  // exclusive implies sole holder
  }
  return true;
}

template <typename E>
bool MultiCacheSim::directory_consistent_t() const {
  std::unordered_map<u64, E> want;
  for (unsigned pe = 0; pe < caches_.size(); ++pe) {
    for (const Line& l : caches_[pe].lines()) {
      E& e = want[l.tag];
      pe_set(e.holders, pe);
      if (l.state == LineState::Dirty) pe_set(e.dirty, pe);
      if (l.state == LineState::Exclusive) pe_set(e.excl, pe);
    }
  }
  if (want.size() != dir<E>().size()) return false;
  bool ok = true;
  dir<E>().for_each([&](u64 tag, const E& d) {
    auto it = want.find(tag);
    if (it == want.end() || !(it->second.holders == d.holders) ||
        !(it->second.dirty == d.dirty) || !(it->second.excl == d.excl))
      ok = false;
  });
  return ok;
}

bool MultiCacheSim::directory_consistent() const {
  if (!coherent_) return dir_.size() == 0 && wdir_.size() == 0;
  return wide_ ? directory_consistent_t<WideDirEntry>()
               : directory_consistent_t<DirEntry>();
}

// --- checkpoint serialization (docs/DESIGN.md §12) -------------------------

static_assert(sizeof(TrafficStats) == 19 * sizeof(u64),
              "TrafficStats changed: update save_traffic/load_traffic and "
              "bump kCheckpointVersion (checkpoint/checkpoint.h)");

void save_traffic(ByteWriter& w, const TrafficStats& s) {
  w.put_u64(s.refs);
  w.put_u64(s.reads);
  w.put_u64(s.writes);
  w.put_u64(s.misses);
  w.put_u64(s.bus_words);
  w.put_u64(s.fetch_words);
  w.put_u64(s.writeback_words);
  w.put_u64(s.writethrough_words);
  w.put_u64(s.invalidations);
  w.put_u64(s.update_words);
  w.put_u64(s.flush_words);
  w.put_u64(s.coherence_violations);
  w.put_u64(s.l2_hits);
  w.put_u64(s.l2_misses);
  w.put_u64(s.mem_fetch_words);
  w.put_u64(s.mem_writeback_words);
  w.put_u64(s.mem_word_writes);
  w.put_u64(s.l2_back_invalidations);
  w.put_u64(s.l2_back_inval_flush_words);
}

TrafficStats load_traffic(ByteReader& r) {
  TrafficStats s;
  s.refs = r.get_u64();
  s.reads = r.get_u64();
  s.writes = r.get_u64();
  s.misses = r.get_u64();
  s.bus_words = r.get_u64();
  s.fetch_words = r.get_u64();
  s.writeback_words = r.get_u64();
  s.writethrough_words = r.get_u64();
  s.invalidations = r.get_u64();
  s.update_words = r.get_u64();
  s.flush_words = r.get_u64();
  s.coherence_violations = r.get_u64();
  s.l2_hits = r.get_u64();
  s.l2_misses = r.get_u64();
  s.mem_fetch_words = r.get_u64();
  s.mem_writeback_words = r.get_u64();
  s.mem_word_writes = r.get_u64();
  s.l2_back_invalidations = r.get_u64();
  s.l2_back_inval_flush_words = r.get_u64();
  return s;
}

namespace {

// Mask serialization shared by both directory representations: a word
// count then the raw words. The flat path always writes one word; the
// wide path writes the PeSet's current words (capacity is a growth
// artifact, not semantic state — the restored set is rebuilt by
// membership and compares equal).
void save_mask(ByteWriter& w, u64 m) {
  w.put_u32(1);
  w.put_u64(m);
}
void save_mask(ByteWriter& w, const PeSet& m) {
  w.put_u32(m.num_words());
  for (unsigned i = 0; i < m.num_words(); ++i) w.put_u64(m.word(i));
}
void load_mask(ByteReader& r, u64& m, unsigned num_pes) {
  u32 nw = r.get_u32();
  if (nw != 1) fail("checkpoint directory: flat mask with word count != 1");
  m = r.get_u64();
  if (num_pes < 64 && (m >> num_pes) != 0)
    fail("checkpoint directory: mask bit >= simulator PE count");
}
void load_mask(ByteReader& r, PeSet& m, unsigned num_pes) {
  u32 nw = r.get_u32();
  if (nw == 0 || nw > (kMaxPes + 63) / 64)
    fail("checkpoint directory: mask word count out of range");
  for (unsigned i = 0; i < nw; ++i) {
    u64 word = r.get_u64();
    while (word) {
      unsigned pe = i * 64 + static_cast<unsigned>(std::countr_zero(word));
      if (pe >= num_pes)
        fail("checkpoint directory: mask bit >= simulator PE count");
      m.set(pe);
      word &= word - 1;
    }
  }
}

}  // namespace

template <typename E>
void MultiCacheSim::save_directory(ByteWriter& w) const {
  const FlatTagMap<E>& d = dir<E>();
  w.put_u64(d.size());
  d.for_each([&](u64 tag, const E& e) {
    w.put_u64(tag);
    save_mask(w, e.holders);
    save_mask(w, e.dirty);
    save_mask(w, e.excl);
  });
}

template <typename E>
void MultiCacheSim::restore_directory(ByteReader& r) {
  u64 n = r.get_u64();
  // The directory is sized once at construction for the total line
  // capacity; a count beyond it would overfill the never-rehashing
  // table (and cannot be a real snapshot of this configuration).
  u64 cap = coherent_ ? u64(caches_.size()) * cfg_.num_lines() : 0;
  if (n > cap)
    fail("checkpoint directory: " + std::to_string(n) +
         " entries exceed the configuration's capacity of " +
         std::to_string(cap));
  FlatTagMap<E>& d = dir<E>();
  unsigned pes = static_cast<unsigned>(caches_.size());
  for (u64 i = 0; i < n; ++i) {
    u64 tag = r.get_u64();
    if (tag == FlatTagMap<E>::kEmptyKey)
      fail("checkpoint directory: reserved tag value");
    E e{};
    load_mask(r, e.holders, pes);
    load_mask(r, e.dirty, pes);
    load_mask(r, e.excl, pes);
    d.upsert(tag) = std::move(e);
  }
  if (d.size() != n) fail("checkpoint directory: duplicate tag");
}

void MultiCacheSim::save_state(ByteWriter& w) const {
  w.put_u8(wide_ ? 1 : 0);
  save_traffic(w, stats_);
  w.put_u64(last_evict_tag_);
  w.put_u8(last_evict_dirty_ ? 1 : 0);
  w.put_u64(caches_.size());
  for (const Cache& c : caches_) c.save_state(w);
  if (wide_) save_directory<WideDirEntry>(w);
  else save_directory<DirEntry>(w);
}

void MultiCacheSim::restore_state(ByteReader& r) {
  if ((r.get_u8() != 0) != wide_)
    fail("checkpoint: directory representation mismatch (flat vs wide)");
  stats_ = load_traffic(r);
  last_evict_tag_ = r.get_u64();
  last_evict_dirty_ = r.get_u8() != 0;
  u64 ncaches = r.get_u64();
  if (ncaches != caches_.size())
    fail("checkpoint: snapshot has " + std::to_string(ncaches) +
         " PE caches, simulator has " + std::to_string(caches_.size()));
  for (Cache& c : caches_) c.restore_state(r);
  if (wide_) restore_directory<WideDirEntry>(r);
  else restore_directory<DirEntry>(r);
  // Deep cross-validation before the restored instance is trusted: the
  // directory must mirror the restored cache contents exactly and the
  // protocol invariants must hold — a frame that passed the checksum
  // but encodes an impossible state is still rejected here. Hybrid is
  // exempt from the invariant check: its live states legitimately
  // carry multi-holder dirty lines when an address is classified
  // "local" by one reference and "global" by another (exactly what
  // stats_.coherence_violations counts), and a faithful restore must
  // accept every reachable state.
  if (coherent_ && !directory_consistent())
    fail("checkpoint: directory does not match the restored cache contents");
  if (cfg_.protocol != Protocol::Hybrid && !invariants_ok())
    fail("checkpoint: restored state violates protocol coherence invariants");
}

// --- conventional coherent write-through --------------------------------

template <typename E>
void MultiCacheSim::access_write_through(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Shared);
    return;
  }
  // Every write goes to memory; snooping caches invalidate their copy.
  stats_.writethrough_words += 1;
  stats_.bus_words += 1;
  invalidate_others<E>(r.pe, tag);
  if (l) return;  // write hit: line updated in place
  ++stats_.misses;
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Shared);
  }
}

// --- non-coherent copy-back (sequential baseline) ------------------------

template <typename E>
void MultiCacheSim::access_copyback(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  if (l) {
    if (r.write) l->state = LineState::Dirty;  // non-coherent: no directory
    return;
  }
  ++stats_.misses;
  if (!r.write) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Exclusive);
    return;
  }
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Dirty);
  } else {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
  }
}

// --- write-in broadcast (invalidate, copy-back, cache-to-cache) ----------

template <typename E>
void MultiCacheSim::access_write_in_broadcast(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    fill<E>(r.pe, tag,
            broadcast_miss_supply<E>(r.pe, tag) ? LineState::Shared
                                                : LineState::Exclusive);
    return;
  }

  if (l) {
    switch (l->state) {
      case LineState::Dirty:
        return;
      case LineState::Exclusive:
        set_state<E>(r.pe, l, LineState::Dirty);
        return;
      case LineState::Shared:
        // One bus word-time to broadcast the invalidation.
        stats_.invalidations += 1;
        stats_.bus_words += 1;
        invalidate_others<E>(r.pe, tag);
        set_state<E>(r.pe, l, LineState::Dirty);
        return;
      case LineState::Invalid:
        break;
    }
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    // Read-for-ownership: fetch the line (from a dirty owner or from
    // memory) and invalidate all other copies in the same transaction.
    if (other_dirty<E>(r.pe, tag)) {
      stats_.flush_words += L();
      stats_.bus_words += L();
    } else {
      stats_.fetch_words += L();
      stats_.bus_words += L();
    }
    invalidate_others<E>(r.pe, tag);
    fill<E>(r.pe, tag, LineState::Dirty);
  } else {
    // Word write to memory plus invalidation of all copies.
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
    invalidate_others<E>(r.pe, tag);
  }
}

// --- write-through broadcast (update) -------------------------------------

template <typename E>
void MultiCacheSim::access_write_update_broadcast(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    fill<E>(r.pe, tag,
            broadcast_miss_supply<E>(r.pe, tag) ? LineState::Shared
                                                : LineState::Exclusive);
    return;
  }

  if (l) {
    if (l->state == LineState::Shared) {
      if (others_hold<E>(r.pe, tag)) {
        // Broadcast the word; sharers and memory update in place.
        stats_.update_words += 1;
        stats_.bus_words += 1;
      } else {
        set_state<E>(r.pe, l, LineState::Dirty);  // last sharer: private again
      }
      return;
    }
    set_state<E>(r.pe, l, LineState::Dirty);
    return;
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    bool shared = broadcast_miss_supply<E>(r.pe, tag);
    fill<E>(r.pe, tag, shared ? LineState::Shared : LineState::Dirty);
    if (shared) {
      stats_.update_words += 1;
      stats_.bus_words += 1;
    }
  } else {
    stats_.update_words += 1;  // word to memory + snooping sharers
    stats_.bus_words += 1;
  }
}

// --- hybrid (tag-driven) ---------------------------------------------------

template <typename E>
void MultiCacheSim::access_hybrid(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  bool global = traits_of(r.cls).locality == Locality::Global;

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    // A line may mix localities (e.g. environment control words and
    // permanent variables): memory is kept current for its *global*
    // words by write-through, so fetching from memory is always safe
    // for global reads. Only a local-tagged read of a line that is
    // dirty in another cache is a Table-1 violation.
    if (!global && dirty_holder<E>(r.pe, tag) >= 0) ++stats_.coherence_violations;
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Shared);
    return;
  }

  if (global) {
    // Write-through; remote copies are invalidated by the snooped
    // memory write (no extra bus words). Own copy updated in place.
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
    invalidate_others<E>(r.pe, tag);
    if (l) return;
    ++stats_.misses;
    if (cfg_.write_allocate) {
      stats_.fetch_words += L();
      stats_.bus_words += L();
      fill<E>(r.pe, tag, LineState::Shared);
    }
    return;
  }

  // Local data: copy-back. Another PE modifying this PE's local line
  // would be a violation; mere clean copies (from global words in the
  // same line) are harmless.
  if (dirty_holder<E>(r.pe, tag) >= 0) ++stats_.coherence_violations;
  if (l) {
    set_state<E>(r.pe, l, LineState::Dirty);
    return;
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill<E>(r.pe, tag, LineState::Dirty);
  } else {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
  }
}

// Explicit instantiations of both directory flavours: the handlers are
// referenced by member-pointer template arguments from this file's
// replay_dispatch and from HierCacheSim's batch loops (hierarchy.cpp).
#define RAPWAM_INSTANTIATE_DIR(E)                                             \
  template void MultiCacheSim::access_write_through<E>(const MemRef&);        \
  template void MultiCacheSim::access_copyback<E>(const MemRef&);             \
  template void MultiCacheSim::access_write_in_broadcast<E>(const MemRef&);   \
  template void MultiCacheSim::access_write_update_broadcast<E>(const MemRef&); \
  template void MultiCacheSim::access_hybrid<E>(const MemRef&);               \
  template void MultiCacheSim::access_dispatch<E>(const MemRef&)

RAPWAM_INSTANTIATE_DIR(MultiCacheSim::DirEntry);
RAPWAM_INSTANTIATE_DIR(MultiCacheSim::WideDirEntry);
#undef RAPWAM_INSTANTIATE_DIR

}  // namespace rapwam
