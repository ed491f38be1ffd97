// One PE's cache: perfect-LRU replacement, parameterised line size and
// associativity. The paper's model is fully associative (ways == 0);
// set-associative configurations exist for the associativity ablation.
//
// Lines carry a MESI-like state; the protocol logic in MultiCacheSim
// decides transitions and bus traffic. The cache itself only manages
// lookup, insertion and LRU eviction.
//
// Storage is a flat, cache-friendly layout (docs/DESIGN.md §6): all
// Line slots live in one contiguous pool, LRU order is an intrusive
// doubly-linked list of u32 slot indices (O(1) touch/evict), and tag
// lookup goes through a single open-addressed hash index over the
// whole pool (FlatTagMap: linear probing, backward-shift deletion,
// load factor kept <= 1/2). This replaces the pointer-chasing
// std::list + unordered_map-of-iterators structure: no per-line
// allocation, no iterator indirection, and the hot lookup path
// touches two small arrays. Line pointers returned by lookup/probe
// stay valid for the life of the Cache (the pool never reallocates).
//
// lookup() first checks a one-entry memo of the line it touched last
// (the MRU memo): about half the references a PE makes repeat its
// previous line, and those return after one compare, with no hash
// probe and no list splice. lookup() and the splice live in this header
// so the protocol handlers inline them (docs/DESIGN.md §6).
#pragma once

#include <vector>

#include "cache/config.h"
#include "support/bytes.h"
#include "support/flat_table.h"

namespace rapwam {

enum class LineState : u8 {
  Invalid,
  Shared,     ///< clean, possibly in other caches
  Exclusive,  ///< clean, only copy
  Dirty,      ///< modified, only valid copy
};

struct Line {
  u64 tag = 0;  ///< line address (addr / line_words)
  LineState state = LineState::Invalid;
  /// The sole-holder hint (docs/DESIGN.md §6): set only while no other
  /// PE's cache holds this line. MultiCacheSim's coherent protocols set
  /// and clear it; unset means "ask the directory". It is not part of
  /// the line's contents: save_state drops it, restored lines start
  /// without it, and tag and state are all the tests compare.
  bool sole = false;
};
static_assert(sizeof(Line) == 16, "the hint lives in Line's padding");

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Finds the line containing `tag`; touches LRU when found.
  Line* lookup(u64 tag) {
    if (tag == mru_tag_) return &slots_[mru_slot_].line;
    const u32* p = idx_.find(tag);
    if (!p) return nullptr;
    u32 n = *p;
    SetList& s = sets_[set_of(tag)];
    if (s.head != n) {  // move to front
      list_unlink(s, n);
      list_push_front(s, n);
    }
    remember(n, tag);
    return &slots_[n].line;
  }
  /// Finds without touching the LRU order (snoops from other PEs).
  /// The const overload supports read-only queries from const callers.
  Line* probe(u64 tag) {
    const u32* n = idx_.find(tag);
    return n ? &slots_[*n].line : nullptr;
  }
  const Line* probe(u64 tag) const {
    const u32* n = idx_.find(tag);
    return n ? &slots_[*n].line : nullptr;
  }

  /// Inserts `tag` (must not be present); returns an evicted line by
  /// value if a valid line had to be displaced.
  struct Evicted {
    bool valid = false;
    Line line;
  };
  Evicted insert(u64 tag, LineState st);

  void invalidate(u64 tag);

  /// The line the last lookup() hit or insert() placed (the MRU memo's
  /// line). Valid right after either call.
  Line& mru_line() { return slots_[mru_slot_].line; }

  std::size_t size() const { return size_; }
  const CacheConfig& config() const { return cfg_; }

  /// Snapshot of all valid lines (tests, invariant checking),
  /// most-recently-used first within each set.
  std::vector<Line> lines() const;

  /// Checkpoint serialization (docs/DESIGN.md §12): the *semantic*
  /// state — per-set (tag, state) lists in MRU→LRU order. Physical
  /// slot indices, free-list order and hash layout are rebuilt by
  /// restore_state and are unobservable (lookup/eviction behaviour
  /// depends only on membership and LRU order), so a restored cache
  /// replays bit-identically to the original.
  void save_state(ByteWriter& w) const;
  /// Rebuilds from a save_state stream. The cache must be freshly
  /// constructed (empty) with the same configuration; throws Error on
  /// any malformed input (bad counts, out-of-set tags, duplicate tags,
  /// invalid line states) before trusting a single record.
  void restore_state(ByteReader& r);

 private:
  static constexpr u32 kNil = 0xFFFFFFFFu;
  static constexpr u64 kDivide = ~u64(0);  ///< set_mask_: count not a power of two

  struct Slot {
    Line line;
    u32 prev = kNil;  ///< towards MRU; kNil at list head
    u32 next = kNil;  ///< towards LRU; doubles as free-list link
  };
  struct SetList {
    u32 head = kNil;  ///< most recently used
    u32 tail = kNil;  ///< least recently used (eviction victim)
    u32 free = kNil;  ///< singly-linked free slots (via Slot::next)
  };

  /// A mask when the set count is a power of two (one set when fully
  /// associative, and the paper's geometries); check_geometry accepts
  /// any other count, which divides.
  std::size_t set_of(u64 tag) const {
    return set_mask_ != kDivide ? tag & set_mask_ : tag % sets_.size();
  }

  void list_unlink(SetList& s, u32 n) {
    Slot& sl = slots_[n];
    (sl.prev == kNil ? s.head : slots_[sl.prev].next) = sl.next;
    (sl.next == kNil ? s.tail : slots_[sl.next].prev) = sl.prev;
  }
  void list_push_front(SetList& s, u32 n) {
    slots_[n].prev = kNil;
    slots_[n].next = s.head;
    if (s.head != kNil)
      slots_[s.head].prev = n;
    else
      s.tail = n;
    s.head = n;
  }

  void remember(u32 n, u64 tag) {
    mru_slot_ = n;
    mru_tag_ = tag;
  }

  CacheConfig cfg_;
  u64 set_mask_ = 0;        ///< set count - 1, or kDivide
  u32 set_cap_ = 0;         ///< line slots per set
  std::vector<Slot> slots_; ///< contiguous pool: set s owns [s*cap, (s+1)*cap)
  std::vector<SetList> sets_;
  FlatTagMap<u32> idx_;     ///< tag -> slot index over the whole pool
  std::size_t size_ = 0;
  /// The MRU memo: the slot and tag of the line lookup() or insert()
  /// touched last, always the head of its set's LRU list, so a memo
  /// hit needs no splice. kEmptyKey (never a valid tag) when empty:
  /// invalidating or evicting the memo's slot clears it. Not
  /// serialized — restore_state rebuilds it through insert().
  u32 mru_slot_ = 0;
  u64 mru_tag_ = FlatTagMap<u32>::kEmptyKey;
};

}  // namespace rapwam
