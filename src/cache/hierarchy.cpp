// The L2 model of MultiCacheSim (cache/hierarchy.h, docs/DESIGN.md §9).
#include "cache/hierarchy.h"

namespace rapwam {

void MultiCacheSim::l2_access(const MemRef& r, StepOutcome& o) {
  // The handler's record identifies the transaction: at most one of
  // fetch/flush (the miss supply), plus word writes (write-through /
  // update) and a dirty L1 eviction, all in the same reference.
  u64 tag = tag_of(r.addr);
  if (o.fetch_words) {
    // The flat model's "fetch from memory" probes the L2 first.
    if (l2_->lookup(tag)) {
      ++stats_.l2_hits;
      o.l2_hit = true;
    } else {
      ++stats_.l2_misses;
      stats_.mem_fetch_words += L();
      l2_fill(tag, LineState::Shared, o);  // clean: copy of memory
    }
  } else if (o.flush_words) {
    // A cache-to-cache flush updates the level below the bus with the
    // owner's data, exactly as it updates memory in the flat model;
    // here that level is the (write-back) L2, so memory stays stale
    // until the L2 line is evicted.
    if (Line* l = l2_->lookup(tag)) l->state = LineState::Dirty;
    else l2_fill(tag, LineState::Dirty, o);
  }
  if (u64 words = u64(o.writethrough_words) + o.update_words) {
    // Write-through / update words: absorbed by an L2 hit, passed to
    // memory on a miss. Word writes never allocate an L2 line (the
    // rest of the line would have to be fetched to complete it).
    if (Line* l = l2_->lookup(tag)) l->state = LineState::Dirty;
    else stats_.mem_word_writes += words;
  }
  if (o.writeback_words) {
    // Dirty L1 eviction lands in the L2. Under inclusion the line is
    // present by invariant; non-inclusive allocates it (write-back
    // victim caching).
    if (Line* l = l2_->lookup(o.victim_tag)) l->state = LineState::Dirty;
    else l2_fill(o.victim_tag, LineState::Dirty, o);
  }
}

void MultiCacheSim::l2_fill(u64 tag, LineState st, StepOutcome& o) {
  Cache::Evicted ev = l2_->insert(tag, st);
  if (!ev.valid) return;
  bool dirty = ev.line.state == LineState::Dirty;
  // Inclusive victim: kill the L1 copies; a dirty L1 copy holds the
  // only current data, so it joins the victim's memory writeback.
  if (inclusive_) dirty = back_invalidate(ev.line.tag, o) || dirty;
  if (dirty) stats_.mem_writeback_words += L();
}

template <typename E>
bool MultiCacheSim::back_invalidate_dir(u64 tag, StepOutcome& o) {
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
    o.back_inval_words += 1;
  }
  if (dirty) {
    stats_.l2_back_inval_flush_words += L();
    o.back_inval_words += L();
  }
  return dirty;
}

bool MultiCacheSim::back_invalidate(u64 tag, StepOutcome& o) {
  if (coherent_) {
    return wide_ ? back_invalidate_dir<WideDirEntry>(tag, o)
                 : back_invalidate_dir<DirEntry>(tag, o);
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
    ++stats_.l2_back_invalidations;
    o.back_inval_words += 1;
  }
  if (dirty) {
    stats_.l2_back_inval_flush_words += L();
    o.back_inval_words += L();
  }
  return dirty;
}

bool MultiCacheSim::inclusion_ok() const {
  if (!l2_ || !inclusive_) return true;
  for (const Cache& c : caches_)
    for (const Line& l : c.lines())
      if (!l2_->probe(l.tag)) return false;
  return true;
}

}  // namespace rapwam
