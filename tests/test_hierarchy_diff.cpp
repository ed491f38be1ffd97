// Differential tests of the two-level hierarchy (cache/hierarchy.h)
// against the flat MultiCacheSim, in the test_cache_diff.cpp /
// test_timing_diff.cpp mould:
//
//   * the degenerate configuration (no L2) is bit-identical to the
//     flat simulator — stats, cache contents and step outcomes — for
//     all five protocols;
//   * a NON-inclusive L2 never touches L1 state, so every bus-side
//     TrafficStats field stays bit-identical to the flat run and only
//     the new l2_*/mem_* counters populate;
//   * an INCLUSIVE L2 maintains the inclusion invariant throughout the
//     replay (every valid L1 line present in the L2), and
//     back-invalidation leaves no stale L1 copies (directory stays
//     consistent, protocol invariants hold);
//   * bus_words always decomposes exactly into its component counters;
//   * the timed replay reproduces the untimed hierarchy's TrafficStats
//     for any timing parameters, and its per-supplier fill counts
//     mirror the traffic counters.
//
// Both randomized traces and a real emulator trace are driven through
// every protocol.
#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.h"
#include "cache/refsim.h"
#include "harness/runner.h"
#include "test_rand.h"
#include "timing/timed_replay.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

CacheConfig flat_cfg(Protocol p) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = 512;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return cfg;
}

CacheConfig hier_cfg(Protocol p, u32 l2_words, u32 l2_ways,
                     L2Config::Inclusion inc) {
  CacheConfig cfg = flat_cfg(p);
  cfg.l2.size_words = l2_words;
  cfg.l2.ways = l2_ways;
  cfg.l2.inclusion = inc;
  return cfg;
}

/// The exact decomposition of bus_words into its component counters,
/// which every simulator mode must maintain.
void expect_bus_decomposes(const TrafficStats& s, const std::string& what) {
  EXPECT_EQ(s.bus_words, s.fetch_words + s.writeback_words +
                             s.writethrough_words + s.invalidations +
                             s.update_words + s.flush_words +
                             s.l2_back_invalidations +
                             s.l2_back_inval_flush_words)
      << what;
}

/// L2/memory counter self-consistency (any hierarchy mode).
void expect_l2_consistent(const TrafficStats& s, u64 line_words,
                          const std::string& what) {
  // Every memory-side line fill probed the L2 exactly once.
  EXPECT_EQ((s.l2_hits + s.l2_misses) * line_words, s.fetch_words) << what;
  // Every L2 miss fetched exactly one line from memory.
  EXPECT_EQ(s.mem_fetch_words, s.l2_misses * line_words) << what;
  EXPECT_EQ(s.mem_writeback_words % line_words, 0u) << what;
  // Word writes that reached memory are a subset of the words written
  // through / broadcast on the bus.
  EXPECT_LE(s.mem_word_writes, s.writethrough_words + s.update_words) << what;
}

/// Bus-side projection of TrafficStats: the new hierarchy counters
/// zeroed, for equality checks between flat and non-inclusive runs.
TrafficStats bus_side(const TrafficStats& s) {
  TrafficStats o = s;
  o.l2_hits = o.l2_misses = 0;
  o.mem_fetch_words = o.mem_writeback_words = o.mem_word_writes = 0;
  o.l2_back_invalidations = o.l2_back_inval_flush_words = 0;
  return o;
}

void expect_same_lines(const MultiCacheSim& a, const MultiCacheSim& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_caches(), b.num_caches()) << what;
  for (unsigned pe = 0; pe < a.num_caches(); ++pe) {
    std::vector<Line> la = a.cache(pe).lines(), lb = b.cache(pe).lines();
    ASSERT_EQ(la.size(), lb.size()) << what << " pe=" << pe;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].tag, lb[i].tag) << what << " pe=" << pe << " i=" << i;
      EXPECT_EQ(la[i].state, lb[i].state) << what << " pe=" << pe << " i=" << i;
    }
  }
}

// --- degenerate configuration ----------------------------------------------

TEST(HierarchyDiff, NoL2IsBitIdenticalToFlatAllProtocols) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 2u, 4u, 8u}) {
      std::vector<u64> trace =
          random_trace(0x41E2 + static_cast<u64>(p) * 131 + pes, pes, 20000);
      CacheConfig cfg = flat_cfg(p);
      MultiCacheSim flat(cfg, pes);
      flat.replay(trace);
      HierCacheSim hier(cfg, pes);  // cfg.l2 disabled by default
      hier.replay(trace);

      const std::string what = protocol_name(p) + " pes=" + std::to_string(pes);
      EXPECT_FALSE(hier.l2_enabled()) << what;
      EXPECT_EQ(hier.stats(), flat.stats()) << what;
      expect_same_lines(hier, flat, what);
      EXPECT_TRUE(hier.directory_consistent()) << what;
      expect_bus_decomposes(hier.stats(), what);
    }
  }
}

TEST(HierarchyDiff, NoL2StepOutcomesMatchFlatStep) {
  std::vector<u64> trace = random_trace(0x57E9D, 4, 12000);
  for (Protocol p : kAllProtocols) {
    CacheConfig cfg = flat_cfg(p);
    MultiCacheSim flat(cfg, 4);
    HierCacheSim hier(cfg, 4);
    for (u64 packed : trace) {
      MemRef r = MemRef::unpack(packed);
      StepOutcome a = flat.step(r);
      StepOutcome b = hier.step(r);
      ASSERT_EQ(a.miss, b.miss) << protocol_name(p);
      ASSERT_EQ(a.supplier, b.supplier) << protocol_name(p);
      ASSERT_EQ(a.bus_words, b.bus_words) << protocol_name(p);
      ASSERT_EQ(a.demand_words, b.demand_words) << protocol_name(p);
      ASSERT_EQ(a.posted_words, b.posted_words) << protocol_name(p);
      ASSERT_EQ(a.invalidations, b.invalidations) << protocol_name(p);
    }
    EXPECT_EQ(hier.stats(), flat.stats()) << protocol_name(p);
  }
}

// --- non-inclusive L2 ------------------------------------------------------

TEST(HierarchyDiff, NonInclusiveLeavesBusSideBitIdentical) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 4u, 8u}) {
      std::vector<u64> trace =
          random_trace(0x202F + static_cast<u64>(p) * 17 + pes, pes, 20000);
      CacheConfig cfg = flat_cfg(p);
      MultiCacheSim flat(cfg, pes);
      flat.replay(trace);
      // Small direct-mapped L2: plenty of L2 conflict evictions, but a
      // non-inclusive L2 must never feed back into L1 behaviour.
      HierCacheSim hier(
          hier_cfg(p, 1024, 1, L2Config::Inclusion::NonInclusive), pes);
      hier.replay(trace);

      const std::string what = protocol_name(p) + " pes=" + std::to_string(pes);
      EXPECT_EQ(bus_side(hier.stats()), flat.stats()) << what;
      EXPECT_EQ(hier.stats().l2_back_invalidations, 0u) << what;
      EXPECT_EQ(hier.stats().l2_back_inval_flush_words, 0u) << what;
      expect_same_lines(hier, flat, what);
      expect_l2_consistent(hier.stats(), cfg.line_words, what);
      expect_bus_decomposes(hier.stats(), what);
      EXPECT_TRUE(hier.directory_consistent()) << what;
      EXPECT_GT(hier.stats().l2_hits, 0u) << what;
      EXPECT_GT(hier.stats().l2_misses, 0u) << what;
    }
  }
}

// --- inclusive L2 ----------------------------------------------------------

TEST(HierarchyDiff, InclusionInvariantHoldsThroughoutReplay) {
  for (Protocol p : kAllProtocols) {
    // Small 2-way L2 barely bigger than one L1: back-invalidation fires
    // constantly. Check the invariants repeatedly DURING the replay,
    // not just at the end.
    HierCacheSim hier(hier_cfg(p, 1024, 2, L2Config::Inclusion::Inclusive), 8);
    std::vector<u64> trace = random_trace(0x1AC + static_cast<u64>(p), 8, 20000);
    std::size_t i = 0;
    for (u64 packed : trace) {
      hier.access(MemRef::unpack(packed));
      if (++i % 1000 == 0) {
        ASSERT_TRUE(hier.inclusion_ok()) << protocol_name(p) << " at " << i;
        ASSERT_TRUE(hier.directory_consistent()) << protocol_name(p) << " at " << i;
        // Hybrid tolerates conflicting local-tagged dirty copies on
        // violation traces (counted, not prevented) — same exclusion
        // as test_cache_diff.
        if (p != Protocol::Hybrid)
          ASSERT_TRUE(hier.invariants_ok()) << protocol_name(p) << " at " << i;
      }
    }
    const std::string what = protocol_name(p);
    EXPECT_TRUE(hier.inclusion_ok()) << what;
    EXPECT_TRUE(hier.directory_consistent()) << what;
    EXPECT_GT(hier.stats().l2_back_invalidations, 0u) << what;
    expect_l2_consistent(hier.stats(), 4, what);
    expect_bus_decomposes(hier.stats(), what);
  }
}

TEST(HierarchyDiff, BackInvalidationLeavesNoStaleL1Copies) {
  // Direct-mapped tiny L2 under an 8-PE shared hot set: the harshest
  // back-invalidation pressure. After every single reference, no L1
  // may hold a line the L2 does not (inclusive), and the directory
  // must mirror the caches exactly.
  for (Protocol p : {Protocol::WriteInBroadcast, Protocol::WriteThroughBroadcast,
                     Protocol::Copyback}) {
    HierCacheSim hier(hier_cfg(p, 512, 1, L2Config::Inclusion::Inclusive), 8);
    std::vector<u64> trace = random_trace(0xBAC0 + static_cast<u64>(p), 8, 4000);
    for (u64 packed : trace) {
      hier.access(MemRef::unpack(packed));
      ASSERT_TRUE(hier.inclusion_ok()) << protocol_name(p);
      ASSERT_TRUE(hier.directory_consistent()) << protocol_name(p);
    }
    EXPECT_GT(hier.stats().l2_back_invalidations, 0u) << protocol_name(p);
  }
}

TEST(HierarchyDiff, CapaciousInclusiveL2NeverBackInvalidates) {
  // A fully-associative L2 big enough for the whole working set never
  // evicts, so inclusion costs nothing and the bus side matches flat.
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0xB16 + static_cast<u64>(p), 8, 20000);
    CacheConfig cfg = flat_cfg(p);
    MultiCacheSim flat(cfg, 8);
    flat.replay(trace);
    HierCacheSim hier(hier_cfg(p, 1u << 17, 0, L2Config::Inclusion::Inclusive), 8);
    hier.replay(trace);
    const std::string what = protocol_name(p);
    EXPECT_EQ(hier.stats().l2_back_invalidations, 0u) << what;
    EXPECT_EQ(hier.stats().mem_writeback_words, 0u) << what;  // nothing evicted
    EXPECT_EQ(bus_side(hier.stats()), flat.stats()) << what;
    EXPECT_TRUE(hier.inclusion_ok()) << what;
    // With no capacity pressure, each distinct line misses to memory
    // exactly once; everything else the memory side sees is an L2 hit.
    EXPECT_LT(hier.stats().mem_traffic_ratio(), hier.stats().traffic_ratio())
        << what;
  }
}

TEST(HierarchyDiff, RejectsBadL2Geometry) {
  CacheConfig cfg = flat_cfg(Protocol::WriteInBroadcast);
  cfg.l2.size_words = 1026;  // not a multiple of the 4-word line
  EXPECT_THROW(HierCacheSim(cfg, 4), Error);
  cfg.l2.size_words = 1024;
  cfg.l2.ways = 3;  // 256 lines not divisible by 3 ways
  EXPECT_THROW(HierCacheSim(cfg, 4), Error);
  // The same rule for the L1, which used to build 3-way sets over
  // floor(256 / 3) * 3 = 255 lines and report "1024 words".
  CacheConfig l1 = flat_cfg(Protocol::WriteInBroadcast);
  l1.size_words = 1024;
  l1.ways = 3;
  EXPECT_THROW(HierCacheSim(l1, 4), Error);
  EXPECT_THROW(MultiCacheSim(l1, 4), Error);
  EXPECT_THROW(ReferenceCacheSim(l1, 4), Error);
  for (u32 ways : {0u, 1u, 2u, 128u, 256u, 1000u}) {  // 0, divisors, >= lines
    l1.ways = ways;
    EXPECT_NO_THROW(l1.check_geometry()) << ways;
  }
  l1.ways = 0;
  l1.line_words = 0;
  EXPECT_THROW(l1.check_geometry(), Error);
}

// --- real emulator trace ---------------------------------------------------

TEST(HierarchyDiff, RealTraceAllProtocolsBothInclusionPolicies) {
  ChunkingSink sink(/*busy_only=*/true);
  run_into(bench_program("qsort", BenchScale::Small), 4, /*strip=*/false, &sink);
  std::shared_ptr<const ChunkedTrace> trace = sink.take();
  ASSERT_GT(trace->size(), 0u);

  for (Protocol p : kAllProtocols) {
    CacheConfig cfg = flat_cfg(p);
    cfg.size_words = 1024;
    cfg.write_allocate = paper_write_allocate(p, cfg.size_words);
    MultiCacheSim flat(cfg, 4);
    flat.replay(*trace);

    for (L2Config::Inclusion inc : {L2Config::Inclusion::Inclusive,
                                    L2Config::Inclusion::NonInclusive}) {
      CacheConfig hc = cfg;
      hc.l2.size_words = 4096;
      hc.l2.ways = 4;
      hc.l2.inclusion = inc;
      HierCacheSim hier(hc, 4);
      hier.replay(*trace);
      const std::string what = protocol_name(p) + " " + inclusion_name(inc);
      EXPECT_EQ(hier.stats().refs, flat.stats().refs) << what;
      expect_l2_consistent(hier.stats(), cfg.line_words, what);
      expect_bus_decomposes(hier.stats(), what);
      EXPECT_TRUE(hier.inclusion_ok()) << what;
      EXPECT_TRUE(hier.directory_consistent()) << what;
      // The L2 must capture some of the memory traffic.
      EXPECT_LT(hier.stats().mem_words(), hier.stats().bus_words) << what;
      if (inc == L2Config::Inclusion::NonInclusive)
        EXPECT_EQ(bus_side(hier.stats()), flat.stats()) << what;
    }
  }
}

// --- timed hierarchy -------------------------------------------------------

TEST(HierarchyDiff, TimedReplayMatchesUntimedHierForAnyParams) {
  const TimingParams params[] = {
      TimingParams::zero_cost(), {1, 1, 2, 4, 0}, {2, 3, 1, 0, 7}, {1, 8, 4, 16, 20}};
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0x7D0 + static_cast<u64>(p), 8, 20000);
    for (L2Config::Inclusion inc : {L2Config::Inclusion::Inclusive,
                                    L2Config::Inclusion::NonInclusive}) {
      CacheConfig cfg = hier_cfg(p, 2048, 4, inc);
      cfg.l2.hit_extra_cycles = 3;
      HierCacheSim untimed(cfg, 8);
      untimed.replay(trace);
      for (const TimingParams& tp : params) {
        TimedReplay timed(cfg, 8, tp);
        timed.replay(trace);
        EXPECT_EQ(timed.traffic(), untimed.stats())
            << protocol_name(p) << " " << inclusion_name(inc)
            << " svc=" << tp.bus_service_cycles;
      }
    }
  }
}

TEST(HierarchyDiff, TimedFillCountsMirrorTrafficCounters) {
  std::vector<u64> trace = random_trace(0xF111, 8, 20000);
  for (Protocol p : kAllProtocols) {
    CacheConfig cfg = hier_cfg(p, 2048, 4, L2Config::Inclusion::Inclusive);
    TimedReplay timed(cfg, 8, TimingParams{1, 1, 2, 4, 0});
    timed.replay(trace);
    TimingStats ts = timed.timing();
    const TrafficStats& s = timed.traffic();
    const std::string what = protocol_name(p);
    // With a non-zero bus service time every demand fill books a bus
    // transaction, so the per-supplier counts match traffic exactly.
    EXPECT_EQ(ts.l2_fills, s.l2_hits) << what;
    EXPECT_EQ(ts.mem_fills, s.l2_misses) << what;
    EXPECT_EQ(ts.cache_fills * cfg.line_words, s.flush_words) << what;
  }
}

TEST(HierarchyDiff, SlowerMemoryNeverShortensTheRun) {
  std::vector<u64> trace = random_trace(0x51074, 8, 20000);
  CacheConfig cfg =
      hier_cfg(Protocol::WriteInBroadcast, 4096, 4, L2Config::Inclusion::Inclusive);
  cfg.l2.hit_extra_cycles = 2;
  u64 prev = 0;
  for (u32 mem_extra : {0u, 10u, 40u}) {
    TimingParams tp{1, 1, 2, 4, mem_extra};
    TimedReplay timed(cfg, 8, tp);
    timed.replay(trace);
    u64 makespan = timed.timing().makespan;
    EXPECT_GE(makespan, prev) << "mem_extra=" << mem_extra;
    prev = makespan;
    for (const PeTiming& pt : timed.timing().pe)
      EXPECT_EQ(pt.clock, pt.busy_cycles + pt.stall_cycles)
          << "mem_extra=" << mem_extra;
  }
}

TEST(HierarchyDiff, FillLatencyAppliesEvenOnAFreeBus) {
  // The per-fill extras model the device behind the bus, so a free
  // (bus_service_cycles == 0) bus does not waive them: every memory
  // fill stalls the PE mem_extra cycles, exactly.
  std::vector<u64> trace = random_trace(0xFEEB, 4, 10000);
  CacheConfig cfg = flat_cfg(Protocol::WriteInBroadcast);
  TimedReplay timed(cfg, 4, TimingParams{1, 0, 1, 0, 100});
  timed.replay(trace);
  TimingStats ts = timed.timing();
  EXPECT_GT(ts.mem_fills, 0u);
  EXPECT_EQ(ts.bus_busy_cycles, 0u);  // the bus itself stays free
  EXPECT_EQ(ts.total_stall(), ts.mem_fills * 100);
  for (const PeTiming& pt : ts.pe)
    EXPECT_EQ(pt.clock, pt.busy_cycles + pt.stall_cycles);
}

TEST(HierarchyDiff, L2LatencyBelowMemoryLatencyHelps) {
  // Same traffic; a fill served in 2 cycles from the L2 instead of 30
  // from memory must not make the run longer than the flat memory-only
  // configuration at the same memory latency.
  std::vector<u64> trace = random_trace(0xFA57, 8, 20000);
  CacheConfig flat = flat_cfg(Protocol::WriteInBroadcast);
  CacheConfig hier =
      hier_cfg(Protocol::WriteInBroadcast, 1u << 17, 0, L2Config::Inclusion::Inclusive);
  hier.l2.hit_extra_cycles = 2;
  TimingParams tp{1, 1, 2, 4, 30};
  TimedReplay slow(flat, 8, tp);
  TimedReplay fast(hier, 8, tp);
  slow.replay(trace);
  fast.replay(trace);
  EXPECT_LT(fast.timing().makespan, slow.timing().makespan);
  EXPECT_GT(fast.timing().l2_fills, 0u);
}

}  // namespace
}  // namespace rapwam
