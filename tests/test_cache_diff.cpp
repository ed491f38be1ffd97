// Differential tests of the directory-based MultiCacheSim against the
// retained naive broadcast-snoop implementation (cache/refsim.h):
// randomized traces must produce bit-identical TrafficStats, identical
// final cache contents, and a directory that exactly mirrors the
// caches. Every case replays a random trace and a same-line trace.
// Plus eviction-order tests pinning the flat-array LRU against a simple
// list model, and FlatTagMap against std::unordered_map.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/multisim.h"
#include "cache/refsim.h"
#include "support/flat_table.h"
#include "test_rand.h"

namespace rapwam {
namespace {

std::vector<Line> sorted_lines(const Cache& c) {
  std::vector<Line> ls = c.lines();
  std::sort(ls.begin(), ls.end(),
            [](const Line& a, const Line& b) { return a.tag < b.tag; });
  return ls;
}

void expect_equivalent(const CacheConfig& cfg, unsigned pes,
                       const std::vector<u64>& trace, const std::string& what) {
  MultiCacheSim fast(cfg, pes);
  ReferenceCacheSim naive(cfg, pes);
  fast.replay(trace);
  naive.replay(trace);

  EXPECT_EQ(fast.stats(), naive.stats()) << what;
  EXPECT_EQ(fast.invariants_ok(), naive.invariants_ok()) << what;
  // Hybrid relies on the emulator's locality discipline; a random
  // trace mixing localities per address legally drives it into the
  // flagged-violation states (that is what coherence_violations
  // counts), so only the structurally-coherent protocols must hold
  // the invariants on arbitrary input.
  if (cfg.protocol != Protocol::Hybrid) EXPECT_TRUE(fast.invariants_ok()) << what;
  EXPECT_TRUE(fast.directory_consistent()) << what;
  for (unsigned pe = 0; pe < pes; ++pe) {
    std::vector<Line> a = sorted_lines(fast.cache(pe));
    std::vector<Line> b = sorted_lines(naive.cache(pe));
    ASSERT_EQ(a.size(), b.size()) << what << " pe=" << pe;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tag, b[i].tag) << what << " pe=" << pe;
      EXPECT_EQ(a[i].state, b[i].state) << what << " pe=" << pe << " tag=" << a[i].tag;
    }
  }
}

/// The same-line input each case replays next to its random trace, in
/// the case's geometry: conflicting references one cache size apart.
std::vector<u64> same_line_input(const CacheConfig& cfg, unsigned pes, u64 seed) {
  return same_line_trace(seed, pes, 6000, cfg.line_words, cfg.size_words);
}

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

TEST(DirectoryDiff, AllProtocolsMatchNaiveOnRandomTraces) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 2u, 4u, 8u}) {
      const u64 seed = 0xC0FFEEu + static_cast<u64>(p) * 131 + pes;
      const std::string what = protocol_name(p) + "/" + std::to_string(pes) + "pe";
      CacheConfig cfg;
      cfg.protocol = p;
      cfg.size_words = 512;
      cfg.line_words = 4;
      cfg.write_allocate = true;
      expect_equivalent(cfg, pes, random_trace(seed, pes, 20000), what);
      // Same-line runs in 16-line caches, fully associative, direct-
      // mapped and 2-way, over one- to sixteen-word and odd line sizes.
      for (u32 line : {1u, 3u, 4u, 16u}) {
        for (u32 ways : {0u, 1u, 2u}) {
          CacheConfig g = cfg;
          g.line_words = line;
          g.size_words = 16 * line;
          g.ways = ways;
          expect_equivalent(g, pes, same_line_input(g, pes, seed + 8 * line + ways),
                            what + "/same-line/line" + std::to_string(line) +
                                "/ways" + std::to_string(ways));
        }
      }
    }
  }
}

TEST(DirectoryDiff, NoWriteAllocateMatches) {
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0xBEEF + static_cast<u64>(p), 4, 15000);
    CacheConfig cfg;
    cfg.protocol = p;
    cfg.size_words = 256;
    cfg.line_words = 4;
    cfg.write_allocate = false;
    expect_equivalent(cfg, 4, trace, protocol_name(p));
    expect_equivalent(cfg, 4, same_line_input(cfg, 4, 0xBEEF + static_cast<u64>(p)),
                      protocol_name(p) + "/same-line");
  }
}

TEST(DirectoryDiff, SetAssociativeMatches) {
  for (Protocol p : kAllProtocols) {
    for (u32 ways : {1u, 2u, 4u}) {
      std::vector<u64> trace =
          random_trace(0xABCD + static_cast<u64>(p) * 7 + ways, 4, 15000);
      CacheConfig cfg;
      cfg.protocol = p;
      cfg.size_words = 256;
      cfg.line_words = 4;
      cfg.write_allocate = true;
      cfg.ways = ways;
      const std::string what = protocol_name(p) + "/ways" + std::to_string(ways);
      expect_equivalent(cfg, 4, trace, what);
      expect_equivalent(cfg, 4,
                        same_line_input(cfg, 4, 0xABCD + static_cast<u64>(p) * 7 + ways),
                        what + "/same-line");
    }
  }
}

TEST(DirectoryDiff, TinyCacheHeavyEvictionMatches) {
  // 4 lines per PE: nearly every reference evicts, stressing the
  // directory's eviction bookkeeping and backward-shift deletion.
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0x5EED + static_cast<u64>(p), 8, 20000);
    CacheConfig cfg;
    cfg.protocol = p;
    cfg.size_words = 16;
    cfg.line_words = 4;
    cfg.write_allocate = true;
    expect_equivalent(cfg, 8, trace, protocol_name(p));
    expect_equivalent(cfg, 8, same_line_input(cfg, 8, 0x5EED + static_cast<u64>(p)),
                      protocol_name(p) + "/same-line");
  }
}

TEST(DirectoryDiff, WideLinesAndManyPes) {
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0xF00D + static_cast<u64>(p), 16, 20000);
    CacheConfig cfg;
    cfg.protocol = p;
    cfg.size_words = 1024;
    cfg.line_words = 16;
    cfg.write_allocate = true;
    expect_equivalent(cfg, 16, trace, protocol_name(p));
    expect_equivalent(cfg, 16, same_line_input(cfg, 16, 0xF00D + static_cast<u64>(p)),
                      protocol_name(p) + "/same-line");
  }
}

TEST(DirectoryDiff, SingleAccessPathMatchesReplay) {
  // access() (per-ref protocol dispatch) and replay() (batched fast
  // path) must produce the same stats, flat and with an L2.
  for (Protocol p : kAllProtocols) {
    for (u32 line : {3u, 4u}) {
      CacheConfig cfg;
      cfg.protocol = p;
      cfg.size_words = 128 * line;
      cfg.line_words = line;
      CacheConfig hc = cfg;
      hc.l2.size_words = 256 * line;
      hc.l2.ways = 2;
      const std::string what = protocol_name(p) + "/line" + std::to_string(line);
      for (const std::vector<u64>& trace :
           {random_trace(0x1234, 4, 10000), same_line_input(cfg, 4, 0x1234)}) {
        MultiCacheSim a(cfg, 4), b(cfg, 4);
        a.replay(trace);
        for (u64 r : trace) b.access(MemRef::unpack(r));
        EXPECT_EQ(a.stats(), b.stats()) << what;
        EXPECT_TRUE(b.directory_consistent()) << what;
        HierCacheSim c(hc, 4), d(hc, 4);
        c.replay(trace);
        for (u64 r : trace) d.access(MemRef::unpack(r));
        EXPECT_EQ(c.stats(), d.stats()) << what;
      }
    }
  }
}

// --- flat-array LRU vs a simple list model --------------------------------

/// Minimal LRU model: front = MRU, per-set std::list, linear search.
struct ModelCache {
  explicit ModelCache(const CacheConfig& cfg) : cfg_(cfg) {
    sets_.resize(cfg.fully_associative() ? 1 : cfg.num_sets());
  }
  std::size_t set_of(u64 tag) const {
    return cfg_.fully_associative() ? 0 : tag % sets_.size();
  }
  Line* find(u64 tag, bool touch) {
    auto& s = sets_[set_of(tag)];
    for (auto it = s.begin(); it != s.end(); ++it) {
      if (it->tag == tag) {
        if (touch) s.splice(s.begin(), s, it);
        return &*it;
      }
    }
    return nullptr;
  }
  Cache::Evicted insert(u64 tag, LineState st) {
    auto& s = sets_[set_of(tag)];
    std::size_t cap = cfg_.fully_associative() ? cfg_.num_lines() : cfg_.ways;
    Cache::Evicted ev;
    if (s.size() >= cap) {
      ev.valid = true;
      ev.line = s.back();
      s.pop_back();
    }
    s.push_front(Line{tag, st});
    return ev;
  }
  void invalidate(u64 tag) {
    auto& s = sets_[set_of(tag)];
    for (auto it = s.begin(); it != s.end(); ++it)
      if (it->tag == tag) {
        s.erase(it);
        return;
      }
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (auto& s : sets_) n += s.size();
    return n;
  }
  /// Cache::lines() order: sets in index order, each MRU first.
  std::vector<Line> lines() const {
    std::vector<Line> out;
    for (auto& s : sets_) out.insert(out.end(), s.begin(), s.end());
    return out;
  }
  CacheConfig cfg_;
  std::vector<std::list<Line>> sets_;
};

/// Same tags and states, in the same order.
bool same_lines(const std::vector<Line>& a, const std::vector<Line>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Line& x, const Line& y) {
                      return x.tag == y.tag && x.state == y.state;
                    });
}

TEST(FlatLru, RandomOpsMatchListModel) {
  // The list model is Cache's only independent oracle: ReferenceCacheSim
  // shares the Cache class. About half the operations repeat the
  // previous tag, the pattern the MRU memo serves; a lookup writes the
  // line's state through the returned pointer, as the protocols do; and
  // after every operation the whole MRU->LRU order must match.
  for (u32 ways : {0u, 1u, 2u, 4u}) {
    CacheConfig cfg;
    cfg.size_words = 128;
    cfg.line_words = 4;
    cfg.ways = ways;
    Cache c(cfg);
    ModelCache m(cfg);
    Lcg rng(ways * 77 + 5);
    u64 tag = 0;
    for (int i = 0; i < 50000; ++i) {
      if (rng.next(2) == 0) tag = rng.next(96);
      LineState st = static_cast<LineState>(1 + rng.next(3));
      switch (rng.next(4)) {
        case 0: {  // insert if absent
          if (!c.probe(tag)) {
            auto ev = c.insert(tag, st);
            auto em = m.insert(tag, st);
            ASSERT_EQ(ev.valid, em.valid) << "ways=" << ways << " op=" << i;
            if (ev.valid) ASSERT_EQ(ev.line.tag, em.line.tag) << "ways=" << ways;
          }
          break;
        }
        case 1: {  // lookup (touches LRU), then a state write through it
          Line* a = c.lookup(tag);
          Line* b = m.find(tag, /*touch=*/true);
          ASSERT_EQ(a != nullptr, b != nullptr) << "ways=" << ways << " op=" << i;
          if (a) {
            ASSERT_EQ(a->tag, tag) << "ways=" << ways << " op=" << i;
            ASSERT_EQ(a->state, b->state) << "ways=" << ways << " op=" << i;
            a->state = b->state = st;
          }
          break;
        }
        case 2: {  // probe (LRU-neutral)
          const Cache& cc = c;
          const Line* a = cc.probe(tag);
          Line* b = m.find(tag, /*touch=*/false);
          ASSERT_EQ(a != nullptr, b != nullptr) << "ways=" << ways << " op=" << i;
          if (a) {
            ASSERT_EQ(a->tag, tag) << "ways=" << ways << " op=" << i;
          }
          break;
        }
        case 3:
          c.invalidate(tag);
          m.invalidate(tag);
          break;
      }
      ASSERT_EQ(c.size(), m.size()) << "ways=" << ways << " op=" << i;
      ASSERT_TRUE(same_lines(c.lines(), m.lines())) << "ways=" << ways << " op=" << i;
    }
  }
}

TEST(FlatLru, SetAssociativeEvictionOrder) {
  // 2-way, 8 sets (64 words / 4-word lines / 2 ways): tags t, t+8,
  // t+16 collide in set t%8.
  CacheConfig cfg;
  cfg.size_words = 64;
  cfg.line_words = 4;
  cfg.ways = 2;
  Cache c(cfg);
  c.insert(3, LineState::Shared);
  c.insert(11, LineState::Shared);   // set 3 now {11, 3}, MRU first
  EXPECT_NE(c.lookup(3), nullptr);   // touch 3 -> {3, 11}
  auto ev = c.insert(19, LineState::Shared);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line.tag, 11u);       // LRU of the set, not insertion order
  EXPECT_NE(c.probe(3), nullptr);
  EXPECT_NE(c.probe(19), nullptr);
  EXPECT_EQ(c.probe(11), nullptr);
  // Other sets are untouched by the conflict.
  c.insert(4, LineState::Shared);
  EXPECT_EQ(c.size(), 3u);
}

TEST(FlatLru, DirectMappedEvictsOnEveryConflict) {
  CacheConfig cfg;
  cfg.size_words = 64;
  cfg.line_words = 4;
  cfg.ways = 1;  // 16 sets
  Cache c(cfg);
  c.insert(5, LineState::Dirty);
  auto ev = c.insert(21, LineState::Shared);  // same set (5 % 16 == 21 % 16)
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line.tag, 5u);
  EXPECT_EQ(ev.line.state, LineState::Dirty);
  EXPECT_EQ(c.size(), 1u);
}

TEST(FlatLru, FullyAssociativeEvictionOrderAcrossReinsert) {
  CacheConfig cfg;
  cfg.size_words = 16;  // 4 lines, fully associative
  cfg.line_words = 4;
  Cache c(cfg);
  for (u64 t = 0; t < 4; ++t) c.insert(t, LineState::Shared);
  c.invalidate(1);                       // free a slot mid-pool
  c.insert(9, LineState::Shared);        // reuses the freed slot
  c.lookup(0);                           // order (MRU..LRU): 0 9 3 2
  EXPECT_EQ(c.insert(10, LineState::Shared).line.tag, 2u);
  EXPECT_EQ(c.insert(11, LineState::Shared).line.tag, 3u);
  EXPECT_EQ(c.insert(12, LineState::Shared).line.tag, 9u);
  EXPECT_EQ(c.insert(13, LineState::Shared).line.tag, 0u);
}

TEST(FlatLru, LinesSnapshotIsMruFirstPerSet) {
  CacheConfig cfg;
  cfg.size_words = 32;  // 8 lines fully associative
  cfg.line_words = 4;
  Cache c(cfg);
  c.insert(1, LineState::Shared);
  c.insert(2, LineState::Dirty);
  c.insert(3, LineState::Exclusive);
  c.lookup(1);
  std::vector<Line> ls = c.lines();
  ASSERT_EQ(ls.size(), 3u);
  EXPECT_EQ(ls[0].tag, 1u);
  EXPECT_EQ(ls[1].tag, 3u);
  EXPECT_EQ(ls[2].tag, 2u);
  EXPECT_EQ(ls[2].state, LineState::Dirty);
}

// --- FlatTagMap vs std::unordered_map ---------------------------------------

TEST(FlatTagMap, RandomOpsMatchUnorderedMap) {
  // The table behind the cache tag index and the sharing directory,
  // driven directly, in its 16-bucket minimum and with 4096 buckets, up
  // to the capacity hint live at once (load 1/2, the table's contract).
  // Keys come from a dense run (stride 1) or are strided like the tags
  // of one cache set. Multiply-shift hashing spreads such a run evenly,
  // so keys are drawn from 8x the capacity to make clusters, and a
  // quarter of the draws come from keys homed in the last two buckets,
  // whose probe chains and backward shifts wrap past the table's end.
  for (u64 capacity : {8u, 2048u}) {
    for (u64 stride : {1u, 64u, 4096u}) {
      const std::string what =
          "capacity=" + std::to_string(capacity) + " stride=" + std::to_string(stride);
      FlatTagMap<u64> t;
      t.init(capacity);  // 2 * capacity buckets
      std::unordered_map<u64, u64> m;
      Lcg rng(capacity * 31 + stride);
      const u64 base = rng.next(u64(1) << 30);
      std::vector<u64> wrapping;
      for (u64 k = 0; wrapping.size() < 16; ++k)
        if (t.home(base + stride * k) + 2 >= 2 * capacity)
          wrapping.push_back(base + stride * k);
      for (int i = 0; i < 40000; ++i) {
        const u64 key = rng.next(4) == 0 ? wrapping[rng.next(wrapping.size())]
                                         : base + stride * rng.next(8 * capacity);
        auto it = m.find(key);
        switch (rng.next(3)) {
          case 0: {  // upsert: the old value if present, else a fresh 0
            if (it == m.end() && m.size() == capacity) break;
            u64& v = t.upsert(key);
            ASSERT_EQ(v, it == m.end() ? 0 : it->second) << what << " op=" << i;
            v = m[key] = rng.next();
            break;
          }
          case 1: {
            const FlatTagMap<u64>& ct = t;
            const u64* f = ct.find(key);
            ASSERT_EQ(f != nullptr, it != m.end()) << what << " op=" << i;
            if (f) {
              ASSERT_EQ(*f, it->second) << what << " op=" << i;
            }
            break;
          }
          case 2:
            t.erase(key);
            m.erase(key);
            break;
        }
        ASSERT_EQ(t.size(), m.size()) << what << " op=" << i;
        if (i % 500 == 0) {  // every live key is found; for_each sees exactly them
          for (const auto& [k, v] : m) {
            const u64* f = t.find(k);
            ASSERT_TRUE(f && *f == v) << what << " op=" << i << " key=" << k;
          }
          std::unordered_map<u64, u64> seen;
          t.for_each([&](u64 k, u64 v) { EXPECT_TRUE(seen.emplace(k, v).second); });
          ASSERT_EQ(seen, m) << what << " op=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rapwam
