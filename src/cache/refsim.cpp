#include "cache/refsim.h"

#include <unordered_map>

namespace rapwam {

ReferenceCacheSim::ReferenceCacheSim(const CacheConfig& cfg, unsigned num_pes)
    : cfg_(cfg) {
  cfg.check_geometry();
  caches_.reserve(num_pes);
  for (unsigned i = 0; i < num_pes; ++i) caches_.emplace_back(cfg);
}

bool ReferenceCacheSim::others_hold(unsigned pe, u64 tag) const {
  for (unsigned i = 0; i < caches_.size(); ++i) {
    if (i == pe) continue;
    if (caches_[i].probe(tag)) return true;
  }
  return false;
}

int ReferenceCacheSim::dirty_holder(unsigned pe, u64 tag) const {
  for (unsigned i = 0; i < caches_.size(); ++i) {
    if (i == pe) continue;
    const Line* l = caches_[i].probe(tag);
    if (l && l->state == LineState::Dirty) return static_cast<int>(i);
  }
  return -1;
}

void ReferenceCacheSim::invalidate_others(unsigned pe, u64 tag) {
  for (unsigned i = 0; i < caches_.size(); ++i) {
    if (i != pe) caches_[i].invalidate(tag);
  }
}

void ReferenceCacheSim::demote_exclusive_others(unsigned pe, u64 tag) {
  for (unsigned i = 0; i < caches_.size(); ++i) {
    if (i == pe) continue;
    Line* l = caches_[i].probe(tag);
    if (l && l->state == LineState::Exclusive) l->state = LineState::Shared;
  }
}

void ReferenceCacheSim::fill(unsigned pe, u64 tag, LineState st) {
  auto ev = caches_[pe].insert(tag, st);
  if (ev.valid && ev.line.state == LineState::Dirty) {
    stats_.writeback_words += L();
    stats_.bus_words += L();
  }
}

void ReferenceCacheSim::access(const MemRef& r) {
  RW_CHECK(r.pe < caches_.size(), "trace reference PE id >= simulator PE count");
  ++stats_.refs;
  if (r.write) ++stats_.writes; else ++stats_.reads;
  switch (cfg_.protocol) {
    case Protocol::WriteThrough: access_write_through(r); break;
    case Protocol::Copyback: access_copyback(r); break;
    case Protocol::WriteInBroadcast: access_write_in_broadcast(r); break;
    case Protocol::WriteThroughBroadcast: access_write_update_broadcast(r); break;
    case Protocol::Hybrid: access_hybrid(r); break;
  }
}

bool ReferenceCacheSim::invariants_ok() const {
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
    if (dirty_sole && holders[tag] > 1) return false;
  }
  for (auto& [tag, n] : excl) {
    if (holders[tag] > 1) return false;
  }
  return true;
}

void ReferenceCacheSim::access_write_through(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Shared);
    return;
  }
  stats_.writethrough_words += 1;
  stats_.bus_words += 1;
  invalidate_others(r.pe, tag);
  if (l) return;
  ++stats_.misses;
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Shared);
  }
}

void ReferenceCacheSim::access_copyback(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  if (l) {
    if (r.write) l->state = LineState::Dirty;
    return;
  }
  ++stats_.misses;
  if (!r.write) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Exclusive);
    return;
  }
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Dirty);
  } else {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
  }
}

void ReferenceCacheSim::access_write_in_broadcast(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    int dh = dirty_holder(r.pe, tag);
    if (dh >= 0) {
      Line* ol = caches_[static_cast<unsigned>(dh)].probe(tag);
      ol->state = LineState::Shared;
      stats_.flush_words += L();
      stats_.bus_words += L();
    } else {
      stats_.fetch_words += L();
      stats_.bus_words += L();
    }
    demote_exclusive_others(r.pe, tag);
    fill(r.pe, tag, others_hold(r.pe, tag) ? LineState::Shared : LineState::Exclusive);
    return;
  }

  if (l) {
    switch (l->state) {
      case LineState::Dirty:
        return;
      case LineState::Exclusive:
        l->state = LineState::Dirty;
        return;
      case LineState::Shared:
        stats_.invalidations += 1;
        stats_.bus_words += 1;
        invalidate_others(r.pe, tag);
        l->state = LineState::Dirty;
        return;
      case LineState::Invalid:
        break;
    }
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    int dh = dirty_holder(r.pe, tag);
    if (dh >= 0) {
      stats_.flush_words += L();
      stats_.bus_words += L();
    } else {
      stats_.fetch_words += L();
      stats_.bus_words += L();
    }
    invalidate_others(r.pe, tag);
    fill(r.pe, tag, LineState::Dirty);
  } else {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
    invalidate_others(r.pe, tag);
  }
}

void ReferenceCacheSim::access_write_update_broadcast(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    int dh = dirty_holder(r.pe, tag);
    if (dh >= 0) {
      Line* ol = caches_[static_cast<unsigned>(dh)].probe(tag);
      ol->state = LineState::Shared;
      stats_.flush_words += L();
      stats_.bus_words += L();
    } else {
      stats_.fetch_words += L();
      stats_.bus_words += L();
    }
    demote_exclusive_others(r.pe, tag);
    fill(r.pe, tag, others_hold(r.pe, tag) ? LineState::Shared : LineState::Exclusive);
    return;
  }

  if (l) {
    if (l->state == LineState::Shared) {
      if (others_hold(r.pe, tag)) {
        stats_.update_words += 1;
        stats_.bus_words += 1;
      } else {
        l->state = LineState::Dirty;
      }
      return;
    }
    l->state = LineState::Dirty;
    return;
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    int dh = dirty_holder(r.pe, tag);
    if (dh >= 0) {
      Line* ol = caches_[static_cast<unsigned>(dh)].probe(tag);
      ol->state = LineState::Shared;
      stats_.flush_words += L();
      stats_.bus_words += L();
    } else {
      stats_.fetch_words += L();
      stats_.bus_words += L();
    }
    demote_exclusive_others(r.pe, tag);
    bool shared = others_hold(r.pe, tag);
    fill(r.pe, tag, shared ? LineState::Shared : LineState::Dirty);
    if (shared) {
      stats_.update_words += 1;
      stats_.bus_words += 1;
    }
  } else {
    stats_.update_words += 1;
    stats_.bus_words += 1;
  }
}

void ReferenceCacheSim::access_hybrid(const MemRef& r) {
  Cache& c = caches_[r.pe];
  u64 tag = tag_of(r.addr);
  Line* l = c.lookup(tag);
  bool global = traits_of(r.cls).locality == Locality::Global;

  if (!r.write) {
    if (l) return;
    ++stats_.misses;
    if (!global && dirty_holder(r.pe, tag) >= 0) ++stats_.coherence_violations;
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Shared);
    return;
  }

  if (global) {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
    invalidate_others(r.pe, tag);
    if (l) return;
    ++stats_.misses;
    if (cfg_.write_allocate) {
      stats_.fetch_words += L();
      stats_.bus_words += L();
      fill(r.pe, tag, LineState::Shared);
    }
    return;
  }

  if (dirty_holder(r.pe, tag) >= 0) ++stats_.coherence_violations;
  if (l) {
    l->state = LineState::Dirty;
    return;
  }
  ++stats_.misses;
  if (cfg_.write_allocate) {
    stats_.fetch_words += L();
    stats_.bus_words += L();
    fill(r.pe, tag, LineState::Dirty);
  } else {
    stats_.writethrough_words += 1;
    stats_.bus_words += 1;
  }
}

}  // namespace rapwam
