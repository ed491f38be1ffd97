// Cache unit tests: LRU mechanics and per-protocol traffic accounting
// on hand-crafted reference streams.
#include <gtest/gtest.h>

#include "cache/multisim.h"
#include "cache/sweep.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

MemRef R(u8 pe, u64 addr, ObjClass cls = ObjClass::HeapTerm) {
  MemRef r;
  r.pe = pe;
  r.addr = addr;
  r.cls = cls;
  r.write = false;
  return r;
}
MemRef W(u8 pe, u64 addr, ObjClass cls = ObjClass::HeapTerm) {
  MemRef r = R(pe, addr, cls);
  r.write = true;
  return r;
}

CacheConfig cfg(Protocol p, u32 size = 64, bool walloc = true) {
  CacheConfig c;
  c.protocol = p;
  c.size_words = size;
  c.line_words = 4;
  c.write_allocate = walloc;
  return c;
}

TEST(CacheLru, HitAfterFill) {
  Cache c(cfg(Protocol::Copyback, 16));
  EXPECT_EQ(c.lookup(5), nullptr);
  c.insert(5, LineState::Shared);
  EXPECT_NE(c.lookup(5), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CacheLru, EvictsLeastRecentlyUsed) {
  Cache c(cfg(Protocol::Copyback, 16));  // 4 lines
  for (u64 t = 0; t < 4; ++t) c.insert(t, LineState::Shared);
  c.lookup(0);  // 0 is now most recent; 1 is LRU
  auto ev = c.insert(9, LineState::Shared);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line.tag, 1u);
  EXPECT_EQ(c.lookup(1), nullptr);
  EXPECT_NE(c.lookup(0), nullptr);
}

TEST(CacheLru, InvalidateRemoves) {
  Cache c(cfg(Protocol::Copyback, 16));
  c.insert(3, LineState::Dirty);
  c.invalidate(3);
  EXPECT_EQ(c.lookup(3), nullptr);
  c.invalidate(42);  // no-op on absent line
}

TEST(Copyback, ReadMissFetchesLine) {
  MultiCacheSim sim(cfg(Protocol::Copyback), 1);
  sim.step(R(0, 100));
  EXPECT_EQ(sim.stats().misses, 1u);
  EXPECT_EQ(sim.stats().bus_words, 4u);
  sim.step(R(0, 101));  // same line: hit
  EXPECT_EQ(sim.stats().misses, 1u);
  EXPECT_EQ(sim.stats().bus_words, 4u);
}

TEST(Copyback, DirtyEvictionWritesBack) {
  MultiCacheSim sim(cfg(Protocol::Copyback, 16), 1);  // 4 lines
  sim.step(W(0, 0));  // fill + dirty
  for (u64 a = 4; a < 20; a += 4) sim.step(R(0, a));  // evict line 0
  // 5 fetches (1 write-allocate + 4 reads) + 1 writeback
  EXPECT_EQ(sim.stats().writeback_words, 4u);
  EXPECT_EQ(sim.stats().bus_words, 5 * 4u + 4u);
}

TEST(Copyback, NoWriteAllocateWritesThrough) {
  MultiCacheSim sim(cfg(Protocol::Copyback, 16, /*walloc=*/false), 1);
  sim.step(W(0, 0));
  EXPECT_EQ(sim.stats().bus_words, 1u);
  EXPECT_EQ(sim.cache(0).size(), 0u);  // not allocated
}

TEST(WriteThrough, EveryWriteCostsOneWord) {
  MultiCacheSim sim(cfg(Protocol::WriteThrough, 64, false), 2);
  for (int i = 0; i < 10; ++i) sim.step(W(0, 0));
  EXPECT_EQ(sim.stats().writethrough_words, 10u);
  EXPECT_EQ(sim.stats().bus_words, 10u);
}

TEST(WriteThrough, RemoteWriteInvalidatesCopy) {
  MultiCacheSim sim(cfg(Protocol::WriteThrough), 2);
  sim.step(R(0, 0));  // PE0 caches line 0
  sim.step(W(1, 0));  // PE1 writes: PE0's copy must go
  sim.step(R(0, 0));  // PE0 misses again
  EXPECT_EQ(sim.stats().misses, 3u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST(WriteInBroadcast, PrivateWritesAreFree) {
  MultiCacheSim sim(cfg(Protocol::WriteInBroadcast), 2);
  sim.step(R(0, 0));  // fetch, Exclusive
  u64 before = sim.stats().bus_words;
  for (int i = 0; i < 100; ++i) sim.step(W(0, 0));
  EXPECT_EQ(sim.stats().bus_words, before);  // no bus traffic at all
}

TEST(WriteInBroadcast, SharedWritePaysOneInvalidation) {
  MultiCacheSim sim(cfg(Protocol::WriteInBroadcast), 2);
  sim.step(R(0, 0));
  sim.step(R(1, 0));  // both share
  u64 before = sim.stats().bus_words;
  sim.step(W(0, 0));  // invalidate PE1's copy: 1 word-time
  EXPECT_EQ(sim.stats().bus_words, before + 1);
  EXPECT_EQ(sim.stats().invalidations, 1u);
  // Subsequent writes are private.
  sim.step(W(0, 0));
  EXPECT_EQ(sim.stats().bus_words, before + 1);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST(WriteInBroadcast, DirtyLineSuppliedCacheToCache) {
  MultiCacheSim sim(cfg(Protocol::WriteInBroadcast), 2);
  sim.step(W(0, 0));  // PE0 dirty
  u64 before = sim.stats().bus_words;
  sim.step(R(1, 0));  // PE1 read: flush from PE0
  EXPECT_EQ(sim.stats().flush_words, 4u);
  EXPECT_EQ(sim.stats().bus_words, before + 4);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST(WriteUpdateBroadcast, SharedWriteBroadcastsWord) {
  MultiCacheSim sim(cfg(Protocol::WriteThroughBroadcast), 2);
  sim.step(R(0, 0));
  sim.step(R(1, 0));
  u64 before = sim.stats().bus_words;
  sim.step(W(0, 0));  // update broadcast, both keep copies
  EXPECT_EQ(sim.stats().update_words, 1u);
  EXPECT_EQ(sim.stats().bus_words, before + 1);
  // PE1 still hits.
  sim.step(R(1, 0));
  EXPECT_EQ(sim.stats().misses, 2u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST(Hybrid, GlobalWritesGoThrough) {
  MultiCacheSim sim(cfg(Protocol::Hybrid), 2);
  sim.step(R(0, 0, ObjClass::HeapTerm));  // heap = global
  u64 before = sim.stats().bus_words;
  sim.step(W(0, 0, ObjClass::HeapTerm));
  EXPECT_EQ(sim.stats().writethrough_words, 1u);
  EXPECT_EQ(sim.stats().bus_words, before + 1);
}

TEST(Hybrid, LocalWritesCopyBack) {
  MultiCacheSim sim(cfg(Protocol::Hybrid), 2);
  sim.step(W(0, 0, ObjClass::ChoicePoint));  // local: allocate dirty
  u64 after_fill = sim.stats().bus_words;
  for (int i = 0; i < 50; ++i) sim.step(W(0, 0, ObjClass::ChoicePoint));
  EXPECT_EQ(sim.stats().bus_words, after_fill);  // all absorbed
  EXPECT_EQ(sim.stats().writethrough_words, 0u);
}

TEST(Hybrid, ViolationDetectedWhenTwoPEsDirtyLocalLine) {
  MultiCacheSim sim(cfg(Protocol::Hybrid), 2);
  // Two PEs treating the same line as their own copy-back-local data
  // can never happen per Table 1; the simulator flags it.
  sim.step(W(1, 0, ObjClass::TrailEntry));  // PE1 dirties the line
  sim.step(W(0, 0, ObjClass::TrailEntry));  // PE0 writes it local too
  EXPECT_GT(sim.stats().coherence_violations, 0u);
}

TEST(Traffic, RatioAccountsDemandWords) {
  MultiCacheSim sim(cfg(Protocol::Copyback, 8), 1);  // 2 lines
  // Stream with no reuse: every 4th word misses.
  for (u64 a = 0; a < 400; ++a) sim.step(R(0, a));
  EXPECT_EQ(sim.stats().refs, 400u);
  EXPECT_NEAR(sim.stats().traffic_ratio(), 1.0, 0.05);
  EXPECT_NEAR(sim.stats().miss_ratio(), 0.25, 0.01);
}

TEST(Traffic, LargeCacheAbsorbsWorkingSet) {
  MultiCacheSim sim(cfg(Protocol::Copyback, 1024), 1);
  for (int pass = 0; pass < 10; ++pass)
    for (u64 a = 0; a < 256; ++a) sim.step(R(0, a));
  // 64 cold misses, everything else hits.
  EXPECT_EQ(sim.stats().misses, 64u);
  EXPECT_LT(sim.stats().traffic_ratio(), 0.11);
}

TEST(CacheConfigCheck, ZeroLineCacheIsRejected) {
  // A cache without a single line is a configuration error, not an
  // all-miss cache.
  EXPECT_THROW(MultiCacheSim(cfg(Protocol::WriteInBroadcast, 0), 2), Error);
  EXPECT_THROW(MultiCacheSim(cfg(Protocol::Copyback, 0), 1), Error);
  CacheConfig no_line = cfg(Protocol::Copyback, 64);
  no_line.line_words = 0;
  EXPECT_THROW(MultiCacheSim(no_line, 1), Error);
  EXPECT_THROW(MultiCacheSim(cfg(Protocol::Copyback, 6), 1), Error);  // 6 % 4
  // One line is the smallest valid cache.
  MultiCacheSim one(cfg(Protocol::Copyback, 4), 1);
  one.step(R(0, 0));
  EXPECT_EQ(one.stats().misses, 1u);
}

TEST(Sweep, RunsPointsInParallel) {
  // Build a small synthetic trace.
  ChunkingSink sink;
  for (u64 a = 0; a < 1000; ++a) sink.on_ref(R(0, a % 128));
  std::shared_ptr<const ChunkedTrace> trace = sink.take();
  ThreadPool pool(4);
  std::vector<SweepPoint> pts;
  for (u32 sz : {64u, 128u, 256u}) {
    SweepPoint p;
    p.cfg = cfg(Protocol::Copyback, sz);
    p.num_pes = 1;
    p.chunks = trace.get();
    pts.push_back(p);
  }
  auto res = run_sweep(pool, pts);
  ASSERT_EQ(res.size(), 3u);
  // Bigger caches can only help on the same trace.
  EXPECT_GE(res[0].stats.traffic_ratio(), res[1].stats.traffic_ratio());
  EXPECT_GE(res[1].stats.traffic_ratio(), res[2].stats.traffic_ratio());
}

}  // namespace
}  // namespace rapwam
