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

unsigned check_pes(unsigned pes, unsigned trace_pes) {
  if (pes < 1 || pes > kMaxPes)
    fail("PE count must be 1.." + std::to_string(kMaxPes) +
         " (the PE ids a trace can name)");
  if (pes < trace_pes)
    fail("PE count " + std::to_string(pes) + " is below the trace's " +
         std::to_string(trace_pes) + " PEs (its references name PE ids up to " +
         std::to_string(trace_pes - 1) + ")");
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
  if (cfg.l2.enabled()) {
    CacheConfig l2cfg;
    l2cfg.size_words = cfg.l2.size_words;
    l2cfg.line_words = cfg.line_words;
    l2cfg.ways = cfg.l2.ways;
    inclusive_ = cfg.l2.inclusion == L2Config::Inclusion::Inclusive;
    l2_.emplace(l2cfg);
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
bool MultiCacheSim::broadcast_miss_supply(unsigned pe, u64 tag, StepOutcome& o) {
  E* e = dir<E>().find(tag);
  if (!e) {
    o.fetch_words = L();
    return false;
  }
  int dh = pe_first_other(e->dirty, pe);
  if (dh >= 0) {
    // Owner supplies the line and keeps a shared (clean) copy; memory
    // is updated by the same transaction.
    caches_[static_cast<unsigned>(dh)].probe(tag)->state = LineState::Shared;
    pe_reset(e->dirty, static_cast<unsigned>(dh));
    o.flush_words = L();
  } else {
    o.fetch_words = L();
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

template <typename E>
void MultiCacheSim::fill(unsigned pe, u64 tag, LineState st, StepOutcome& o) {
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
    o.writeback_words = L();
    o.victim_tag = ev.line.tag;
  }
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
  w.put_u64(caches_.size());
  for (const Cache& c : caches_) c.save_state(w);
  if (wide_) save_directory<WideDirEntry>(w);
  else save_directory<DirEntry>(w);
  w.put_u8(l2_ ? 1 : 0);
  if (l2_) l2_->save_state(w);
}

void MultiCacheSim::restore_state(ByteReader& r) {
  if ((r.get_u8() != 0) != wide_)
    fail("checkpoint: directory representation mismatch (flat vs wide)");
  stats_ = load_traffic(r);
  u64 ncaches = r.get_u64();
  if (ncaches != caches_.size())
    fail("checkpoint: snapshot has " + std::to_string(ncaches) +
         " PE caches, simulator has " + std::to_string(caches_.size()));
  for (Cache& c : caches_) c.restore_state(r);
  if (wide_) restore_directory<WideDirEntry>(r);
  else restore_directory<DirEntry>(r);
  if ((r.get_u8() != 0) != l2_.has_value())
    fail("checkpoint: L2 presence mismatch between snapshot and configuration");
  if (l2_) l2_->restore_state(r);
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
  if (!inclusion_ok())
    fail("checkpoint: restored state violates the L2 inclusion invariant");
}

// --- the replay loop's entry points ------------------------------------------

void MultiCacheSim::replay(const u64* packed, std::size_t n) {
  replay(packed, n, [](const MemRef&, const StepOutcome&) {});
}

StepOutcome MultiCacheSim::step(const MemRef& r) {
  StepOutcome out;
  const u64 packed = r.pack();
  replay(&packed, 1, [&out](const MemRef&, const StepOutcome& o) { out = o; });
  return out;
}

// The handlers (multisim.h) inline into replay loops instantiated in
// other files too (TimedReplay's); these are the helpers they call.
#define RAPWAM_INSTANTIATE_DIR(E)                                                    \
  template bool MultiCacheSim::others_hold<E>(unsigned, u64) const;                  \
  template int MultiCacheSim::dirty_holder<E>(unsigned, u64) const;                  \
  template bool MultiCacheSim::other_dirty<E>(unsigned, u64) const;                  \
  template void MultiCacheSim::invalidate_others<E>(unsigned, u64);                  \
  template bool MultiCacheSim::broadcast_miss_supply<E>(unsigned, u64, StepOutcome&); \
  template void MultiCacheSim::fill<E>(unsigned, u64, LineState, StepOutcome&);      \
  template void MultiCacheSim::set_state<E>(unsigned, Line*, LineState)

RAPWAM_INSTANTIATE_DIR(MultiCacheSim::DirEntry);
RAPWAM_INSTANTIATE_DIR(MultiCacheSim::WideDirEntry);
#undef RAPWAM_INSTANTIATE_DIR

}  // namespace rapwam
