// Differential tests for the wide (PeSet) sharing directory
// (docs/DESIGN.md §11).
//
// Two pins, from two directions:
//   * <= 64 PEs: DirRep::Wide forced against the default flat u64
//     directory — every protocol, the batched replay path, the
//     per-reference step() path, the hierarchy, and the timed replay
//     must be bit-identical (TrafficStats, StepOutcomes, TimingStats,
//     final cache contents). The wide representation is a pure change
//     of mask encoding; any divergence is a bug in it.
//   * > 64 PEs (65/128/256): the wide directory against the naive
//     broadcast ReferenceCacheSim, which has no PE cap and never had
//     masks — the same executable-specification check the flat
//     directory is held to below 65 PEs.
// Plus a ThreadPool sweep determinism check at > 64 PEs (run under the
// CI ThreadSanitizer job) and coherence/consistency property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/refsim.h"
#include "cache/sweep.h"
#include "test_rand.h"
#include "timing/timed_replay.h"

namespace rapwam {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

std::vector<Line> sorted_lines(const Cache& c) {
  std::vector<Line> ls = c.lines();
  std::sort(ls.begin(), ls.end(),
            [](const Line& a, const Line& b) { return a.tag < b.tag; });
  return ls;
}

template <typename SimA, typename SimB>
void expect_same_caches(const SimA& a, const SimB& b, unsigned pes,
                        const char* what) {
  for (unsigned pe = 0; pe < pes; ++pe) {
    std::vector<Line> la = sorted_lines(a.cache(pe));
    std::vector<Line> lb = sorted_lines(b.cache(pe));
    ASSERT_EQ(la.size(), lb.size()) << what << " pe=" << pe;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].tag, lb[i].tag) << what << " pe=" << pe;
      EXPECT_EQ(la[i].state, lb[i].state)
          << what << " pe=" << pe << " tag=" << la[i].tag;
    }
  }
}

CacheConfig diff_cfg(Protocol p, u32 size_words = 512) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = size_words;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return cfg;
}

// --- <= 64 PEs: forced-wide vs flat, bit-identical -------------------------

TEST(WidePeDiff, ForcedWideMatchesFlatBitIdentical) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 4u, 8u, 64u}) {
      std::vector<u64> trace =
          random_trace(0x11DEu + static_cast<u64>(p) * 131 + pes, pes, 20000);
      MultiCacheSim flat(diff_cfg(p), pes, DirRep::Flat);
      MultiCacheSim wide(diff_cfg(p), pes, DirRep::Wide);
      ASSERT_FALSE(flat.wide_directory());
      ASSERT_TRUE(wide.wide_directory());
      flat.replay(trace);
      wide.replay(trace);
      std::string what = protocol_name(p) + "/" + std::to_string(pes) + "pe";
      EXPECT_EQ(flat.stats(), wide.stats()) << what;
      EXPECT_EQ(flat.invariants_ok(), wide.invariants_ok()) << what;
      EXPECT_TRUE(flat.directory_consistent()) << what;
      EXPECT_TRUE(wide.directory_consistent()) << what;
      expect_same_caches(flat, wide, pes, what.c_str());
    }
  }
}

TEST(WidePeDiff, StepOutcomesMatchFlatPerReference) {
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0x57E9 + static_cast<u64>(p), 8, 8000);
    MultiCacheSim flat(diff_cfg(p), 8, DirRep::Flat);
    MultiCacheSim wide(diff_cfg(p), 8, DirRep::Wide);
    for (u64 packed : trace) {
      MemRef r = MemRef::unpack(packed);
      StepOutcome a = flat.step(r);
      StepOutcome b = wide.step(r);
      ASSERT_EQ(a.miss, b.miss) << protocol_name(p);
      ASSERT_EQ(a.supplier(), b.supplier()) << protocol_name(p);
      ASSERT_EQ(a.bus_words(), b.bus_words()) << protocol_name(p);
      ASSERT_EQ(a.demand_words(), b.demand_words()) << protocol_name(p);
      ASSERT_EQ(a.posted_words(), b.posted_words()) << protocol_name(p);
      ASSERT_EQ(a.invalidations, b.invalidations) << protocol_name(p);
    }
    EXPECT_EQ(flat.stats(), wide.stats()) << protocol_name(p);
  }
}

TEST(WidePeDiff, HierarchyForcedWideMatchesFlat) {
  // A small inclusive L2 forces frequent back-invalidation — the one
  // hierarchy path that reads directory masks directly.
  for (L2Config::Inclusion inc : {L2Config::Inclusion::Inclusive,
                                  L2Config::Inclusion::NonInclusive}) {
    CacheConfig cfg = diff_cfg(Protocol::WriteInBroadcast, 256);
    cfg.l2.size_words = 512;
    cfg.l2.ways = 4;
    cfg.l2.inclusion = inc;
    std::vector<u64> trace = random_trace(0x1E5E + (inc == L2Config::Inclusion::Inclusive), 8, 20000);
    MultiCacheSim flat(cfg, 8, DirRep::Flat);
    MultiCacheSim wide(cfg, 8, DirRep::Wide);
    flat.replay(trace.data(), trace.size());
    wide.replay(trace.data(), trace.size());
    std::string what = std::string("hier-") + inclusion_name(inc);
    EXPECT_EQ(flat.stats(), wide.stats()) << what;
    EXPECT_TRUE(flat.inclusion_ok()) << what;
    EXPECT_TRUE(wide.inclusion_ok()) << what;
    EXPECT_TRUE(wide.directory_consistent()) << what;
    expect_same_caches(flat, wide, 8, what.c_str());
  }
}

TEST(WidePeDiff, TimedReplayForcedWideMatchesFlat) {
  std::vector<u64> trace = random_trace(0x71AE, 8, 12000);
  TimingParams tp{1, 1, 2, 4, 0};
  TimedReplay flat(diff_cfg(Protocol::WriteInBroadcast), 8, tp, DirRep::Flat);
  TimedReplay wide(diff_cfg(Protocol::WriteInBroadcast), 8, tp, DirRep::Wide);
  flat.replay(trace);
  wide.replay(trace);
  EXPECT_EQ(flat.traffic(), wide.traffic());
  TimingStats a = flat.timing(), b = wide.timing();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles);
  EXPECT_EQ(a.bus_transactions, b.bus_transactions);
  EXPECT_EQ(a.cache_fills, b.cache_fills);
  EXPECT_EQ(a.mem_fills, b.mem_fills);
  EXPECT_EQ(a.total_busy(), b.total_busy());
  EXPECT_EQ(a.total_stall(), b.total_stall());
}

// --- > 64 PEs: wide directory vs the naive broadcast reference -------------

TEST(WidePeDiff, ManyPesMatchNaiveReference) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {65u, 128u, 256u}) {
      std::vector<u64> trace =
          random_trace(0xB16 + static_cast<u64>(p) * 17 + pes, pes, 30000);
      MultiCacheSim wide(diff_cfg(p), pes);
      ASSERT_TRUE(wide.wide_directory());  // Auto picks wide above 64
      ReferenceCacheSim naive(diff_cfg(p), pes);
      wide.replay(trace);
      naive.replay(trace);
      std::string what = protocol_name(p) + "/" + std::to_string(pes) + "pe";
      EXPECT_EQ(wide.stats(), naive.stats()) << what;
      EXPECT_EQ(wide.invariants_ok(), naive.invariants_ok()) << what;
      if (p != Protocol::Hybrid) {
        EXPECT_TRUE(wide.invariants_ok()) << what;
      }
      EXPECT_TRUE(wide.directory_consistent()) << what;
      expect_same_caches(wide, naive, pes, what.c_str());
    }
  }
}

TEST(WidePeDiff, ManyPesHeavyEvictionMatchesNaive) {
  // 4 lines per PE at 128 PEs: near-constant eviction churns directory
  // entries whose masks straddle the first/second word boundary.
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0xE71C + static_cast<u64>(p), 128, 25000);
    MultiCacheSim wide(diff_cfg(p, 16), 128);
    ReferenceCacheSim naive(diff_cfg(p, 16), 128);
    wide.replay(trace);
    naive.replay(trace);
    EXPECT_EQ(wide.stats(), naive.stats()) << protocol_name(p);
    EXPECT_TRUE(wide.directory_consistent()) << protocol_name(p);
    expect_same_caches(wide, naive, 128, protocol_name(p).c_str());
  }
}

TEST(WidePeDiff, HierarchyBackInvalidationAboveSixtyFourPes) {
  // Inclusive L2 far smaller than the aggregate L1 capacity at 256
  // PEs: back-invalidation constantly collapses wide holder sets.
  CacheConfig cfg = diff_cfg(Protocol::WriteInBroadcast, 64);
  cfg.l2.size_words = 1024;
  cfg.l2.ways = 8;
  cfg.l2.inclusion = L2Config::Inclusion::Inclusive;
  std::vector<u64> trace = random_trace(0xBAC4, 256, 40000);
  MultiCacheSim sim(cfg, 256);
  ASSERT_TRUE(sim.wide_directory());
  sim.replay(trace.data(), trace.size());
  EXPECT_GT(sim.stats().l2_back_invalidations, 0u);
  EXPECT_TRUE(sim.inclusion_ok());
  EXPECT_TRUE(sim.invariants_ok());
  EXPECT_TRUE(sim.directory_consistent());
}

TEST(WidePeDiff, SharersAcrossWordBoundaries) {
  // One line read by every PE then written by PE 0: the invalidation
  // must reach holders in every mask word, and the directory must
  // collapse to the single writer.
  const unsigned pes = 200;
  MultiCacheSim sim(diff_cfg(Protocol::WriteInBroadcast), pes);
  MemRef r;
  r.addr = 0;
  r.cls = ObjClass::HeapTerm;
  for (unsigned pe = 0; pe < pes; ++pe) {
    r.pe = static_cast<u8>(pe);
    r.write = false;
    sim.step(r);
  }
  for (unsigned pe = 0; pe < pes; ++pe)
    EXPECT_NE(sim.cache(pe).lines().size(), 0u) << pe;
  r.pe = 0;
  r.write = true;
  sim.step(r);
  EXPECT_EQ(sim.stats().invalidations, 1u);
  EXPECT_EQ(sim.cache(0).lines().size(), 1u);
  for (unsigned pe = 1; pe < pes; ++pe)
    EXPECT_EQ(sim.cache(pe).lines().size(), 0u) << pe;
  EXPECT_TRUE(sim.directory_consistent());
}

TEST(WidePeDiff, TimedReplayRunsAboveSixtyFourPes) {
  // End-to-end timing at 256 PEs: per-PE structures must size past the
  // old cap and the coherence side must stay consistent.
  std::vector<u64> trace = random_trace(0x256AE, 256, 20000);
  TimedReplay tr(diff_cfg(Protocol::WriteInBroadcast), 256,
                 TimingParams{1, 1, 2, 4, 0});
  tr.replay(trace);
  TimingStats ts = tr.timing();
  EXPECT_EQ(ts.pe.size(), 256u);
  EXPECT_EQ(tr.traffic().refs, trace.size());
  EXPECT_GT(ts.makespan, 0u);
  EXPECT_TRUE(tr.sim().directory_consistent());
  // Same trace, untimed: traffic must agree (timing never perturbs
  // coherence, wide directory included).
  MultiCacheSim untimed(diff_cfg(Protocol::WriteInBroadcast), 256);
  untimed.replay(trace);
  EXPECT_EQ(tr.traffic(), untimed.stats());
}

// --- threaded sweeps over the wide directory (TSan-covered) ----------------

TEST(WidePeSweepDeterminism, PoolMatchesSerialAboveSixtyFourPes) {
  std::shared_ptr<const ChunkedTrace> t128 =
      chunked(random_trace(0x128AB, 128, 10000));
  std::vector<SweepPoint> points;
  int label = 0;
  for (Protocol p : kAllProtocols) {
    for (u32 sz : {256u, 1024u}) {
      SweepPoint sp;
      sp.cfg = diff_cfg(p, sz);
      sp.num_pes = 128;
      sp.chunks = t128.get();
      sp.label = label++;
      points.push_back(sp);
    }
  }
  ThreadPool pool(4);
  std::vector<SweepResult> pooled = run_sweep(pool, points);
  ASSERT_EQ(pooled.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    TrafficStats serial =
        replay_traffic(points[i].cfg, points[i].num_pes, *points[i].chunks);
    EXPECT_EQ(pooled[i].stats, serial) << "point " << i;
  }
}

}  // namespace
}  // namespace rapwam
