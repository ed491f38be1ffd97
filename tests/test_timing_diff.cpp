// Differential tests of the timed replay (src/timing) against the
// untimed MultiCacheSim, following the test_cache_diff.cpp pattern:
// the timed engine drives the same coherence machinery in global trace
// order, so its TrafficStats must be bit-identical to an untimed
// replay for ALL timing parameters — in particular the zero-cost
// (free-bus) configuration — across all five protocols. Plus
// structural properties of the virtual-time accounting itself.
#include <gtest/gtest.h>

#include <vector>

#include "cache/multisim.h"
#include "test_rand.h"
#include "timing/timed_replay.h"

namespace rapwam {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

CacheConfig small_cfg(Protocol p) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = 512;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return cfg;
}

TEST(TimingDiff, ZeroCostBusIsBitIdenticalToUntimedAllProtocols) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 2u, 4u, 8u}) {
      std::vector<u64> trace =
          random_trace(0x71AEDu + static_cast<u64>(p) * 131 + pes, pes, 20000);
      CacheConfig cfg = small_cfg(p);
      MultiCacheSim untimed(cfg, pes);
      untimed.replay(trace);
      TimedReplay timed(cfg, pes, TimingParams::zero_cost());
      timed.replay(trace);

      const std::string what = protocol_name(p);
      EXPECT_EQ(timed.traffic(), untimed.stats()) << what << " pes=" << pes;
      EXPECT_TRUE(timed.sim().directory_consistent()) << what;

      // A free bus never stalls anyone, and every PE's clock is
      // exactly its issue time.
      TimingStats ts = timed.timing();
      u64 max_refs = 0;
      for (const PeTiming& pt : ts.pe) {
        EXPECT_EQ(pt.stall_cycles, 0u) << what;
        EXPECT_EQ(pt.clock, pt.refs) << what;  // cycles_per_ref == 1
        max_refs = std::max(max_refs, pt.refs);
      }
      EXPECT_EQ(ts.makespan, max_refs) << what;
      EXPECT_EQ(ts.bus_busy_cycles, 0u) << what;
      EXPECT_EQ(ts.bus_transactions, 0u) << what;
    }
  }
}

TEST(TimingDiff, AnyBusParamsLeaveTrafficStatsUnchanged) {
  // Stronger than the zero-cost requirement: timing parameters must
  // never leak into the coherence results.
  const TimingParams params[] = {
      {1, 1, 1, 0}, {1, 1, 2, 4}, {2, 3, 4, 1}, {1, 8, 1, 16}};
  for (Protocol p : kAllProtocols) {
    std::vector<u64> trace = random_trace(0xB0B0 + static_cast<u64>(p), 8, 20000);
    CacheConfig cfg = small_cfg(p);
    MultiCacheSim untimed(cfg, 8);
    untimed.replay(trace);
    for (const TimingParams& tp : params) {
      TimedReplay timed(cfg, 8, tp);
      timed.replay(trace);
      EXPECT_EQ(timed.traffic(), untimed.stats())
          << protocol_name(p) << " svc=" << tp.bus_service_cycles
          << " il=" << tp.interleave << " wbuf=" << tp.write_buffer_depth;
    }
  }
}

TEST(TimingDiff, StepApiAccumulatesExactlyLikeReplay) {
  // The per-reference step() API (the StepOutcome TimedReplay times)
  // must decompose every transaction consistently: per-ref outcome deltas
  // sum back to the aggregate counters, and demand+posted == bus.
  std::vector<u64> trace = random_trace(0x57E9, 4, 15000);
  for (Protocol p : kAllProtocols) {
    CacheConfig cfg = small_cfg(p);
    MultiCacheSim stepped(cfg, 4), replayed(cfg, 4);
    u64 bus = 0, demand = 0, posted = 0, misses = 0;
    for (u64 packed : trace) {
      StepOutcome o = stepped.step(MemRef::unpack(packed));
      bus += o.bus_words();
      demand += o.demand_words();
      posted += o.posted_words();
      misses += o.miss ? 1 : 0;
      EXPECT_EQ(o.demand_words() + o.posted_words(), o.bus_words());
    }
    replayed.replay(trace);
    EXPECT_EQ(stepped.stats(), replayed.stats()) << protocol_name(p);
    EXPECT_EQ(bus, replayed.stats().bus_words) << protocol_name(p);
    EXPECT_EQ(demand,
              replayed.stats().fetch_words + replayed.stats().flush_words)
        << protocol_name(p);
    EXPECT_EQ(posted, bus - demand) << protocol_name(p);
    EXPECT_EQ(misses, replayed.stats().misses) << protocol_name(p);
  }
}

// --- virtual-time accounting properties ------------------------------------

TEST(TimedReplayProps, ClockEqualsBusyPlusStallPerPe) {
  std::vector<u64> trace = random_trace(0xC10C, 8, 20000);
  for (const TimingParams& tp :
       {TimingParams{1, 1, 1, 0}, TimingParams{1, 2, 2, 4}, TimingParams{3, 1, 4, 2}}) {
    TimedReplay timed(small_cfg(Protocol::WriteInBroadcast), 8, tp);
    timed.replay(trace);
    TimingStats ts = timed.timing();
    for (const PeTiming& pt : ts.pe)
      EXPECT_EQ(pt.clock, pt.busy_cycles + pt.stall_cycles);
  }
}

TEST(TimedReplayProps, UtilizationBoundedAndBusyWithinMakespan) {
  std::vector<u64> trace = random_trace(0xB41, 8, 20000);
  for (u32 svc : {1u, 2u, 4u, 8u}) {
    for (u32 wbuf : {0u, 2u, 8u}) {
      TimedReplay timed(small_cfg(Protocol::WriteThrough), 8,
                        TimingParams{1, svc, 1, wbuf});
      timed.replay(trace);
      TimingStats ts = timed.timing();
      EXPECT_LE(ts.bus_busy_cycles, ts.makespan) << svc << "/" << wbuf;
      EXPECT_LE(ts.bus_utilization(), 1.0) << svc << "/" << wbuf;
      EXPECT_GT(ts.bus_utilization(), 0.0) << svc << "/" << wbuf;
      EXPECT_LE(ts.speedup(), 8.0 + 1e-9) << svc << "/" << wbuf;
    }
  }
}

TEST(TimedReplayProps, BusOccupancyScalesExactlyWithServiceCycles) {
  // Traffic is parameter-independent, so doubling the per-word service
  // time exactly doubles total bus occupancy (interleave 1: no
  // rounding).
  std::vector<u64> trace = random_trace(0x5CA1E, 4, 15000);
  CacheConfig cfg = small_cfg(Protocol::WriteInBroadcast);
  u64 base = 0;
  for (u32 svc : {1u, 2u, 4u}) {
    TimedReplay timed(cfg, 4, TimingParams{1, svc, 1, 0});
    timed.replay(trace);
    u64 busy = timed.timing().bus_busy_cycles;
    if (svc == 1) {
      base = busy;
      EXPECT_EQ(busy, timed.traffic().bus_words);
    } else {
      EXPECT_EQ(busy, base * svc);
    }
  }
}

TEST(TimedReplayProps, FreeBusIsALowerBoundOnMakespan) {
  std::vector<u64> trace = random_trace(0xF4EE, 8, 20000);
  CacheConfig cfg = small_cfg(Protocol::WriteInBroadcast);
  TimedReplay free_bus(cfg, 8, TimingParams::zero_cost());
  free_bus.replay(trace);
  u64 floor = free_bus.timing().makespan;
  for (const TimingParams& tp :
       {TimingParams{1, 1, 4, 8}, TimingParams{1, 1, 1, 0}, TimingParams{1, 4, 1, 0}}) {
    TimedReplay timed(cfg, 8, tp);
    timed.replay(trace);
    EXPECT_GE(timed.timing().makespan, floor);
  }
}

TEST(TimedReplayProps, BalancedTraceZeroCostGivesIdealSpeedup) {
  // Strict round-robin interleaving, n divisible by pes: every PE
  // issues exactly n/pes refs, so the free-bus speedup is exactly pes.
  for (unsigned pes : {2u, 4u, 8u}) {
    Lcg rng(pes);
    std::vector<u64> trace;
    for (std::size_t i = 0; i < 8000; ++i) {
      MemRef r;
      r.pe = static_cast<u8>(i % pes);
      r.addr = rng.next(4096);
      r.write = rng.next(4) == 0;
      r.busy = true;
      trace.push_back(r.pack());
    }
    TimedReplay timed(small_cfg(Protocol::WriteInBroadcast), pes,
                      TimingParams::zero_cost());
    timed.replay(trace);
    TimingStats ts = timed.timing();
    EXPECT_DOUBLE_EQ(ts.speedup(), static_cast<double>(pes));
    EXPECT_DOUBLE_EQ(ts.efficiency(), 1.0);
  }
}

TEST(TimedReplayProps, DeterministicAcrossRuns) {
  std::vector<u64> trace = random_trace(0xD5, 8, 20000);
  TimingParams tp{1, 1, 2, 4};
  CacheConfig cfg = small_cfg(Protocol::Hybrid);
  TimedReplay a(cfg, 8, tp), b(cfg, 8, tp);
  a.replay(trace);
  b.replay(trace);
  TimingStats ta = a.timing(), tb = b.timing();
  EXPECT_EQ(ta.makespan, tb.makespan);
  EXPECT_EQ(ta.bus_busy_cycles, tb.bus_busy_cycles);
  EXPECT_EQ(ta.bus_transactions, tb.bus_transactions);
  ASSERT_EQ(ta.pe.size(), tb.pe.size());
  for (std::size_t i = 0; i < ta.pe.size(); ++i) {
    EXPECT_EQ(ta.pe[i].stall_cycles, tb.pe[i].stall_cycles);
    EXPECT_EQ(ta.pe[i].clock, tb.pe[i].clock);
  }
  EXPECT_EQ(a.traffic(), b.traffic());
}

TEST(TimedReplayProps, WriteBufferAbsorbsWriteThroughStalls) {
  // Write-through turns every write into a posted word; with deep
  // buffers and a fast bus most of those never stall the PE, so total
  // stall time must not increase vs. blocking writes.
  std::vector<u64> trace = random_trace(0x3B5F, 8, 20000);
  CacheConfig cfg = small_cfg(Protocol::WriteThrough);
  TimedReplay blocking(cfg, 8, TimingParams{1, 1, 2, 0});
  TimedReplay buffered(cfg, 8, TimingParams{1, 1, 2, 16});
  blocking.replay(trace);
  buffered.replay(trace);
  EXPECT_LE(buffered.timing().total_stall(), blocking.timing().total_stall());
  EXPECT_LE(buffered.timing().makespan, blocking.timing().makespan);
}

// --- write-buffer edge cases ------------------------------------------------

TEST(TimedReplayProps, WriteBufferDepthEdgeCases) {
  // depth 0 (every write blocks), depth 1 (the smallest buffer that
  // can overflow) and a deep buffer must all keep the per-PE
  // accounting identity clock == busy + stall, and agree on the
  // coherence results. Write-through maximises posted writes.
  std::vector<u64> trace = random_trace(0xED6E, 8, 20000);
  CacheConfig cfg = small_cfg(Protocol::WriteThrough);
  MultiCacheSim untimed(cfg, 8);
  untimed.replay(trace);
  u64 prev_stall = ~u64(0);
  for (u32 depth : {0u, 1u, 2u, 64u}) {
    TimedReplay timed(cfg, 8, TimingParams{1, 2, 1, depth});
    timed.replay(trace);
    EXPECT_EQ(timed.traffic(), untimed.stats()) << "depth=" << depth;
    TimingStats ts = timed.timing();
    u64 stall = 0;
    for (const PeTiming& pt : ts.pe) {
      EXPECT_EQ(pt.clock, pt.busy_cycles + pt.stall_cycles)
          << "depth=" << depth;
      stall += pt.stall_cycles;
    }
    // A deeper buffer can only hide more write latency.
    EXPECT_LE(stall, prev_stall) << "depth=" << depth;
    prev_stall = stall;
  }
}

TEST(TimedReplayProps, DepthOneOverflowDrainsOldestFirst) {
  // A single PE issuing back-to-back posted writes through a 1-deep
  // buffer: each write's bus slot is booked immediately, but the PE
  // only waits when the buffer overflows — i.e. it runs one
  // transaction ahead of the bus. With service 2 and issue 1, the bus
  // falls behind by 1 cycle per write until the PE is fully
  // bus-bound, and the LAST write's completion is never waited for
  // (it drains past the PE's clock into the makespan).
  CacheConfig cfg = small_cfg(Protocol::WriteThrough);
  std::vector<u64> trace;
  MemRef prime;  // read fill so every following write is a posted hit
  prime.addr = 0;
  prime.busy = true;
  trace.push_back(prime.pack());
  for (int i = 0; i < 8; ++i) {
    MemRef r;
    r.addr = 0;
    r.write = true;
    r.busy = true;
    trace.push_back(r.pack());
  }
  TimedReplay timed(cfg, 1, TimingParams{1, 2, 1, 1});
  timed.replay(trace);
  TimingStats ts = timed.timing();
  ASSERT_EQ(ts.pe.size(), 1u);
  EXPECT_EQ(ts.pe[0].clock, ts.pe[0].busy_cycles + ts.pe[0].stall_cycles);
  // One 4-word fill (8 busy cycles) + 8 posted words (2 each).
  EXPECT_EQ(ts.bus_busy_cycles, 8u + 8u * 2);
  EXPECT_EQ(ts.bus_transactions, 9u);
  // The fill stalls 8; from the third write on, every overflow waits 1
  // cycle for the oldest entry (the bus runs 2 cycles/write against a
  // 2-cycle issue-to-issue distance once a stall lands). The final
  // write is never waited for: it drains past the PE's clock, so the
  // makespan extends beyond it.
  EXPECT_GT(ts.makespan, ts.pe[0].clock);
  // Blocking writes (depth 0) on the same trace stall strictly more
  // and leave nothing in flight at the end.
  TimedReplay blocking(cfg, 1, TimingParams{1, 2, 1, 0});
  blocking.replay(trace);
  EXPECT_GT(blocking.timing().total_stall(), ts.total_stall());
  EXPECT_EQ(blocking.timing().makespan, blocking.timing().pe[0].clock);
}

TEST(TimedReplayProps, DemandMissDrainsWholeBufferBeforeFilling) {
  // One PE: a run of posted writes (uncached lines with no-allocate
  // would be simplest, but write-through write hits are posted too),
  // then a read miss. The read must wait for every buffered write to
  // drain (memory order), then for its own fill — so its stall covers
  // the full backlog, and the buffer is empty afterwards (observable
  // as: a second immediate read of another line stalls only for its
  // own fill, not for any leftover writes).
  CacheConfig cfg = small_cfg(Protocol::WriteThrough);
  std::vector<u64> trace;
  MemRef w;
  w.addr = 0;
  w.write = true;
  w.busy = true;
  MemRef r1;
  r1.addr = 4096;
  r1.busy = true;
  MemRef r2;
  r2.addr = 8192;
  r2.busy = true;
  // Prime the line, then 6 posted write hits, then two read misses.
  MemRef prime;
  prime.addr = 0;
  prime.busy = true;
  trace.push_back(prime.pack());
  for (int i = 0; i < 6; ++i) trace.push_back(w.pack());
  trace.push_back(r1.pack());
  trace.push_back(r2.pack());

  TimedReplay timed(cfg, 1, TimingParams{1, 2, 1, 8});
  timed.replay(trace);
  TimingStats ts = timed.timing();
  ASSERT_EQ(ts.pe.size(), 1u);
  EXPECT_EQ(ts.pe[0].clock, ts.pe[0].busy_cycles + ts.pe[0].stall_cycles);
  EXPECT_EQ(ts.makespan, ts.pe[0].clock);  // demand misses drained the buffer
  // Total bus occupancy: 3 fills (8 cycles each) + 6 words (2 each).
  EXPECT_EQ(ts.bus_busy_cycles, 3u * 8 + 6u * 2);
  EXPECT_EQ(ts.bus_transactions, 9u);
  // The exact schedule: prime stalls 8; the six posted hits never
  // stall (deep buffer); r1 drains the backlog (6 cycles, to the last
  // write's completion at t=22) then waits its own 8-cycle fill; r2
  // finds the buffer empty and waits only its own 8. Total 8+6+8+8.
  EXPECT_EQ(ts.pe[0].stall_cycles, 30u);
}

TEST(TimedReplayProps, SaturationPeCountFindsFirstSaturatedRun) {
  TimingStats low, high;
  low.pe.resize(1);
  high.pe.resize(1);
  low.makespan = 100;
  low.bus_busy_cycles = 10;
  high.makespan = 100;
  high.bus_busy_cycles = 99;
  std::vector<std::pair<unsigned, TimingStats>> runs = {
      {2, low}, {8, high}, {16, high}};
  EXPECT_EQ(saturation_pe_count(runs), 8u);
  EXPECT_EQ(saturation_pe_count({{2, low}, {4, low}}), 0u);
}

TEST(TimedReplayProps, RejectsDegenerateParams) {
  CacheConfig cfg = small_cfg(Protocol::WriteInBroadcast);
  EXPECT_THROW(TimedReplay(cfg, 4, TimingParams{1, 1, 0, 0}), Error);
  EXPECT_THROW(TimedReplay(cfg, 4, TimingParams{0, 1, 1, 0}), Error);
}

}  // namespace
}  // namespace rapwam
