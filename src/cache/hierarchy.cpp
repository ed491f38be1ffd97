#include "cache/hierarchy.h"

namespace rapwam {

HierCacheSim::HierCacheSim(const CacheConfig& cfg, unsigned num_pes, DirRep rep)
    : MultiCacheSim(cfg, num_pes, rep) {  // checks the L2 geometry too
  if (!cfg.l2.enabled()) return;
  CacheConfig l2cfg;
  l2cfg.size_words = cfg.l2.size_words;
  l2cfg.line_words = cfg.line_words;
  l2cfg.ways = cfg.l2.ways;
  inclusive_ = cfg.l2.inclusion == L2Config::Inclusion::Inclusive;
  l2_.emplace(l2cfg);
}

template <void (MultiCacheSim::*Handler)(const MemRef&)>
void HierCacheSim::hier_access(const MemRef& r) {
  // Run the unchanged flat handler, then route its memory-side words
  // through the L2. The counter deltas identify the transaction: at
  // most one of fetch/flush (the miss supply), plus word writes
  // (write-through / update) and a dirty L1 eviction, all in the same
  // reference.
  u64 f0 = stats_.fetch_words, fl0 = stats_.flush_words,
      wb0 = stats_.writeback_words,
      w0 = stats_.writethrough_words + stats_.update_words;
  last_evict_dirty_ = false;
  count_ref(r);
  (this->*Handler)(r);
  l2_after_access(tag_of(r.addr), stats_.fetch_words - f0,
                  stats_.flush_words - fl0, stats_.writeback_words - wb0,
                  stats_.writethrough_words + stats_.update_words - w0);
}

template <void (MultiCacheSim::*Handler)(const MemRef&)>
void HierCacheSim::hier_replay_loop(const u64* packed, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    hier_access<Handler>(MemRef::unpack(packed[i]));
}

template <typename E>
void HierCacheSim::hier_access_dispatch(const MemRef& r) {
  switch (cfg_.protocol) {
    case Protocol::WriteThrough:
      hier_access<&HierCacheSim::access_write_through<E>>(r);
      break;
    case Protocol::Copyback:
      hier_access<&HierCacheSim::access_copyback<E>>(r);
      break;
    case Protocol::WriteInBroadcast:
      hier_access<&HierCacheSim::access_write_in_broadcast<E>>(r);
      break;
    case Protocol::WriteThroughBroadcast:
      hier_access<&HierCacheSim::access_write_update_broadcast<E>>(r);
      break;
    case Protocol::Hybrid:
      hier_access<&HierCacheSim::access_hybrid<E>>(r);
      break;
  }
}

void HierCacheSim::access(const MemRef& r) {
  if (!l2_) {
    MultiCacheSim::access(r);
    return;
  }
  if (wide_) hier_access_dispatch<WideDirEntry>(r);
  else hier_access_dispatch<DirEntry>(r);
}

StepOutcome HierCacheSim::step(const MemRef& r) {
  if (!l2_) return MultiCacheSim::step(r);
  const TrafficStats before = stats_;
  access(r);
  StepOutcome o;
  o.miss = stats_.misses != before.misses;
  u64 fetch = stats_.fetch_words - before.fetch_words;
  u64 flush = stats_.flush_words - before.flush_words;
  o.bus_words = stats_.bus_words - before.bus_words;
  o.demand_words = fetch + flush;
  // Back-invalidation broadcasts and flushes land here: fire-and-forget
  // from the referencing PE's point of view, like evict writebacks.
  o.posted_words = o.bus_words - o.demand_words;
  o.invalidations = static_cast<u32>(stats_.invalidations - before.invalidations);
  o.supplier = flush ? StepOutcome::Supplier::Cache
               : fetch ? (stats_.l2_hits != before.l2_hits
                              ? StepOutcome::Supplier::L2
                              : StepOutcome::Supplier::Memory)
                       : StepOutcome::Supplier::None;
  return o;
}

template <typename E>
void HierCacheSim::hier_replay_dispatch(const u64* packed, std::size_t n) {
  switch (cfg_.protocol) {
    case Protocol::WriteThrough:
      hier_replay_loop<&HierCacheSim::access_write_through<E>>(packed, n);
      break;
    case Protocol::Copyback:
      hier_replay_loop<&HierCacheSim::access_copyback<E>>(packed, n);
      break;
    case Protocol::WriteInBroadcast:
      hier_replay_loop<&HierCacheSim::access_write_in_broadcast<E>>(packed, n);
      break;
    case Protocol::WriteThroughBroadcast:
      hier_replay_loop<&HierCacheSim::access_write_update_broadcast<E>>(packed, n);
      break;
    case Protocol::Hybrid:
      hier_replay_loop<&HierCacheSim::access_hybrid<E>>(packed, n);
      break;
  }
}

void HierCacheSim::replay(const u64* packed, std::size_t n) {
  if (!l2_) {
    MultiCacheSim::replay(packed, n);  // flat fast path, untouched
    return;
  }
  if (wide_) hier_replay_dispatch<WideDirEntry>(packed, n);
  else hier_replay_dispatch<DirEntry>(packed, n);
}

void HierCacheSim::l2_after_access(u64 tag, u64 fetch_d, u64 flush_d, u64 wb_d,
                                   u64 word_d) {
  if (fetch_d) {
    // The flat model's "fetch from memory" probes the L2 first.
    if (l2_->lookup(tag)) {
      ++stats_.l2_hits;
    } else {
      ++stats_.l2_misses;
      stats_.mem_fetch_words += L();
      l2_fill(tag, LineState::Shared);  // clean: copy of memory
    }
  } else if (flush_d) {
    // A cache-to-cache flush updates the level below the bus with the
    // owner's data, exactly as it updates memory in the flat model;
    // here that level is the (write-back) L2, so memory stays stale
    // until the L2 line is evicted.
    if (Line* l = l2_->lookup(tag)) l->state = LineState::Dirty;
    else l2_fill(tag, LineState::Dirty);
  }
  if (word_d) {
    // Write-through / update words: absorbed by an L2 hit, passed to
    // memory on a miss. Word writes never allocate an L2 line (the
    // rest of the line would have to be fetched to complete it).
    if (Line* l = l2_->lookup(tag)) l->state = LineState::Dirty;
    else stats_.mem_word_writes += word_d;
  }
  if (wb_d && last_evict_dirty_) {
    // Dirty L1 eviction lands in the L2. Under inclusion the line is
    // present by invariant; non-inclusive allocates it (write-back
    // victim caching).
    if (Line* l = l2_->lookup(last_evict_tag_)) l->state = LineState::Dirty;
    else l2_fill(last_evict_tag_, LineState::Dirty);
  }
}

void HierCacheSim::l2_fill(u64 tag, LineState st) {
  Cache::Evicted ev = l2_->insert(tag, st);
  if (!ev.valid) return;
  bool dirty = ev.line.state == LineState::Dirty;
  // Inclusive victim: kill the L1 copies; a dirty L1 copy holds the
  // only current data, so it joins the victim's memory writeback.
  if (inclusive_) dirty = back_invalidate(ev.line.tag) || dirty;
  if (dirty) stats_.mem_writeback_words += L();
}

template <typename E>
bool HierCacheSim::back_invalidate_dir(u64 tag) {
  E* e = dir<E>().find(tag);
  if (!e) return false;
  bool any = pe_any(e->holders);
  bool dirty = pe_any(e->dirty);
  pe_for_each(e->holders, [&](unsigned pe) { caches_[pe].invalidate(tag); });
  dir<E>().erase(tag);
  if (any) {
    // One address-only broadcast kills every copy (same bus cost as an
    // invalidation broadcast in the flat protocols).
    ++stats_.l2_back_invalidations;
    stats_.bus_words += 1;
  }
  if (dirty) {
    stats_.l2_back_inval_flush_words += L();
    stats_.bus_words += L();
  }
  return dirty;
}

bool HierCacheSim::back_invalidate(u64 tag) {
  if (coherent_) {
    return wide_ ? back_invalidate_dir<WideDirEntry>(tag)
                 : back_invalidate_dir<DirEntry>(tag);
  }
  // Copyback keeps no directory; probe every cache (back-invals are
  // rare next to references, and copyback is the sequential baseline).
  bool any = false, dirty = false;
  for (Cache& c : caches_) {
    if (const Line* l = c.probe(tag)) {
      any = true;
      dirty = dirty || l->state == LineState::Dirty;
      c.invalidate(tag);
    }
  }
  if (any) {
    // One address-only broadcast kills every copy (same bus cost as an
    // invalidation broadcast in the flat protocols).
    ++stats_.l2_back_invalidations;
    stats_.bus_words += 1;
  }
  if (dirty) {
    stats_.l2_back_inval_flush_words += L();
    stats_.bus_words += L();
  }
  return dirty;
}

bool HierCacheSim::inclusion_ok() const {
  if (!l2_ || !inclusive_) return true;
  for (const Cache& c : caches_)
    for (const Line& l : c.lines())
      if (!l2_->probe(l.tag)) return false;
  return true;
}

void HierCacheSim::save_state(ByteWriter& w) const {
  MultiCacheSim::save_state(w);
  w.put_u8(l2_ ? 1 : 0);
  if (l2_) l2_->save_state(w);
}

void HierCacheSim::restore_state(ByteReader& r) {
  MultiCacheSim::restore_state(r);
  bool has_l2 = r.get_u8() != 0;
  if (has_l2 != l2_.has_value())
    fail("checkpoint: L2 presence mismatch between snapshot and configuration");
  if (l2_) {
    l2_->restore_state(r);
    if (!inclusion_ok())
      fail("checkpoint: restored state violates the L2 inclusion invariant");
  }
}

}  // namespace rapwam
