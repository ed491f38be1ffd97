#include "cache/cache.h"

#include <algorithm>
#include <bit>

namespace rapwam {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  fa_ = cfg.fully_associative();
  u32 nsets = fa_ ? 1 : cfg.num_sets();
  set_cap_ = fa_ ? cfg.num_lines() : cfg.ways;
  if (nsets == 0) nsets = 1;
  if (set_cap_ == 0) set_cap_ = 1;
  slots_.resize(static_cast<std::size_t>(nsets) * set_cap_);
  sets_.resize(nsets);
  for (u32 s = 0; s < nsets; ++s) {
    u32 base = s * set_cap_;
    sets_[s].free = base;
    for (u32 k = 0; k < set_cap_; ++k)
      slots_[base + k].next = (k + 1 < set_cap_) ? base + k + 1 : kNil;
  }
  idx_.init(slots_.size());
}

Cache::Evicted Cache::insert(u64 tag, LineState state) {
  RW_CHECK(idx_.find(tag) == nullptr, "cache insert of present line");
  SetList& s = sets_[set_of(tag)];
  Evicted ev;
  u32 n;
  if (s.free != kNil) {
    n = s.free;
    s.free = slots_[n].next;
  } else {  // set full: displace the LRU line
    n = s.tail;
    ev.valid = true;
    ev.line = slots_[n].line;
    idx_.erase(ev.line.tag);
    list_unlink(s, n);
    --size_;
  }
  slots_[n].line = Line{tag, state};
  list_push_front(s, n);
  idx_.upsert(tag) = n;
  ++size_;
  remember(n, tag);  // also drops a memo of the evicted line
  return ev;
}

void Cache::invalidate(u64 tag) {
  const u32* p = idx_.find(tag);
  if (!p) return;
  u32 n = *p;
  if (tag == mru_tag_) mru_tag_ = FlatTagMap<u32>::kEmptyKey;  // drop the memo
  SetList& s = sets_[set_of(tag)];
  list_unlink(s, n);
  slots_[n].next = s.free;
  s.free = n;
  idx_.erase(tag);
  --size_;
}

void Cache::save_state(ByteWriter& w) const {
  w.put_u64(sets_.size());
  for (const SetList& s : sets_) {
    u64 count = 0;
    for (u32 n = s.head; n != kNil; n = slots_[n].next) ++count;
    w.put_u64(count);
    for (u32 n = s.head; n != kNil; n = slots_[n].next) {
      w.put_u64(slots_[n].line.tag);
      w.put_u8(static_cast<u8>(slots_[n].line.state));
    }
  }
}

void Cache::restore_state(ByteReader& r) {
  RW_CHECK(size_ == 0, "cache restore into a non-empty cache");
  u64 nsets = r.get_u64();
  if (nsets != sets_.size())
    fail("checkpoint cache: set count " + std::to_string(nsets) +
         " does not match the configured " + std::to_string(sets_.size()));
  std::vector<Line> set_lines;
  for (std::size_t si = 0; si < sets_.size(); ++si) {
    u64 count = r.get_u64();
    if (count > set_cap_)
      fail("checkpoint cache: set " + std::to_string(si) + " holds " +
           std::to_string(count) + " lines, capacity " +
           std::to_string(set_cap_));
    set_lines.clear();
    for (u64 k = 0; k < count; ++k) {
      u64 tag = r.get_u64();
      u8 st = r.get_u8();
      if (st > static_cast<u8>(LineState::Dirty))
        fail("checkpoint cache: invalid line state " + std::to_string(st));
      if (set_of(tag) != si)
        fail("checkpoint cache: tag in the wrong set");
      if (idx_.find(tag) != nullptr)
        fail("checkpoint cache: duplicate tag");
      set_lines.push_back(Line{tag, static_cast<LineState>(st)});
      // Reserve the membership early so the duplicate check above sees
      // tags from this set too; the real insert below overwrites it.
      idx_.upsert(tag) = 0;
    }
    for (const Line& l : set_lines) idx_.erase(l.tag);
    // Insert LRU-first: each insert pushes to the MRU end, so the
    // serialized MRU→LRU order is reproduced exactly. The set cannot
    // overflow (count <= set_cap_), so no eviction fires.
    for (std::size_t k = set_lines.size(); k-- > 0;) {
      Evicted ev = insert(set_lines[k].tag, set_lines[k].state);
      RW_CHECK(!ev.valid, "cache restore evicted a line");
    }
  }
}

std::vector<Line> Cache::lines() const {
  std::vector<Line> out;
  out.reserve(size_);
  for (const SetList& s : sets_)
    for (u32 n = s.head; n != kNil; n = slots_[n].next) out.push_back(slots_[n].line);
  return out;
}

}  // namespace rapwam
