// Differential tests of the chunked trace pipeline (DESIGN.md §8): the
// flat stream and its chunked storage (ChunkingSink -> ChunkedTrace)
// must replay to bit-identical TrafficStats and TimingStats for all
// five protocols on randomized traces. On real emulator runs the memory
// bus is the one place references are counted and filtered: a trace's
// counters are the run's RunStats::refs, and a busy-only trace is the
// busy filter of the keep-all trace of the same run. Without a sink or
// with a busy-only one, idle PEs count their quiet wait polls and steal
// probes in bulk; a keep-all sink takes the full path, so whole
// RunStats agreeing across the three pins the quiet path.
#include <gtest/gtest.h>

#include <vector>

#include "checkpoint/checkpoint.h"
#include "harness/runner.h"
#include "harness/trace_lib.h"
#include "test_programs.h"
#include "test_rand.h"
#include "timing/timed_replay.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// `n` randomized references mixing busy and idle references, shared
/// and private regions, and all Table-1 object classes. Deterministic
/// in `seed`.
std::vector<u64> random_stream(u64 seed, unsigned pes, std::size_t n) {
  Lcg rng(seed);
  std::vector<u64> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r;
    r.pe = static_cast<u8>(rng.next(pes));
    r.addr = rng.next(3) == 0 ? rng.next(96) : 4096 + r.pe * 8192 + rng.next(2048);
    r.cls = static_cast<ObjClass>(rng.next(kObjClassCount));
    r.write = rng.next(5) < 2;
    r.busy = rng.next(5) != 0;  // ~20% idle refs
    out.push_back(r.pack());
  }
  return out;
}

/// Hands `stream` to `sink` in odd-sized bursts, so chunk re-slicing is
/// exercised, and returns the sink's trace.
std::shared_ptr<const ChunkedTrace> chunk_in_bursts(const std::vector<u64>& stream,
                                                    u64 seed) {
  ChunkingSink sink;
  Lcg rng(seed);
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t len = std::min<std::size_t>(stream.size() - i, 1 + rng.next(4093));
    sink.on_chunk(stream.data() + i, len);
    i += len;
  }
  return sink.take();
}

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

void expect_timing_eq(const TimingStats& a, const TimingStats& b, const char* what) {
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles) << what;
  EXPECT_EQ(a.bus_transactions, b.bus_transactions) << what;
  ASSERT_EQ(a.pe.size(), b.pe.size()) << what;
  for (std::size_t i = 0; i < a.pe.size(); ++i) {
    EXPECT_EQ(a.pe[i].refs, b.pe[i].refs) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].busy_cycles, b.pe[i].busy_cycles) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].stall_cycles, b.pe[i].stall_cycles) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].clock, b.pe[i].clock) << what << " pe=" << i;
  }
}

TEST(StreamingPipeline, ChunkedStorageMatchesMaterializedBuffer) {
  for (unsigned pes : {1u, 4u, 8u}) {
    std::vector<u64> stream = random_stream(0xFACE + pes, pes, 150000);
    std::shared_ptr<const ChunkedTrace> trace = chunk_in_bursts(stream, pes);

    // Same stream, bit for bit: the sink stores what it is given.
    EXPECT_EQ(trace->size(), stream.size());
    EXPECT_EQ(trace->to_packed(), stream);
    // Chunks are full-size except the last.
    for (std::size_t i = 0; i + 1 < trace->num_chunks(); ++i)
      EXPECT_EQ(trace->chunk(i).size(), kChunkRefs);
  }
}

TEST(StreamingPipeline, AllProtocolsChunkedReplayMatchesFlat) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 4u, 8u}) {
      std::vector<u64> flat =
          random_stream(0xAB + static_cast<u64>(p) * 131 + pes, pes, 120000);
      std::shared_ptr<const ChunkedTrace> trace = chunk_in_bursts(flat, pes);

      CacheConfig cfg;
      cfg.protocol = p;
      cfg.size_words = 512;
      cfg.line_words = 4;
      cfg.write_allocate = true;

      MultiCacheSim a(cfg, pes), b(cfg, pes);
      a.replay(flat);
      b.replay(*trace);
      EXPECT_EQ(a.stats(), b.stats())
          << protocol_name(p) << "/" << pes << "pe";
    }
  }
}

TEST(StreamingPipeline, TimedReplayOverChunksMatchesFlat) {
  for (Protocol p : {Protocol::WriteInBroadcast, Protocol::WriteThrough}) {
    std::vector<u64> flat = random_stream(0x717 + static_cast<u64>(p), 4, 100000);
    std::shared_ptr<const ChunkedTrace> trace = chunk_in_bursts(flat, 4);

    CacheConfig cfg;
    cfg.protocol = p;
    cfg.size_words = 512;
    cfg.line_words = 4;
    cfg.write_allocate = true;
    TimingParams tp{1, 1, 2, 4};

    TimedReplay a(cfg, 4, tp), b(cfg, 4, tp);
    a.replay(flat);
    b.replay(*trace);
    EXPECT_EQ(a.traffic(), b.traffic()) << protocol_name(p);
    expect_timing_eq(a.timing(), b.timing(), protocol_name(p).c_str());
  }
}

/// One benchmark run: `pes` PEs, or the sequential WAM when `pes` is 0.
struct EngineCase {
  const char* bench;
  unsigned pes;
  BenchScale scale = BenchScale::Small;
};

std::string case_name(const EngineCase& c) {
  return std::string(c.bench) + (c.pes ? "/" + std::to_string(c.pes) + "pe" : "/wam") +
         (c.scale == BenchScale::Paper ? "/paper" : "");
}

std::vector<EngineCase> small_engine_cases() {
  std::vector<EngineCase> out;
  for (const char* b : {"deriv", "tak", "qsort", "matrix"})
    for (unsigned pes : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 0u}) out.push_back({b, pes});
  return out;
}

RunStats run_stats(const EngineCase& c, TraceSink* sink) {
  return run_into(bench_program(c.bench, c.scale), c.pes ? c.pes : 1,
                  /*strip=*/c.pes == 0, sink)
      .stats;
}

struct TracedRun {
  RunStats stats;
  std::shared_ptr<const ChunkedTrace> trace;
};

TracedRun run_traced(const EngineCase& c, bool busy_only) {
  ChunkingSink sink(busy_only);
  RunStats stats = run_stats(c, &sink);
  return {stats, sink.take()};
}

TEST(StreamingPipeline, TraceCountsAreTheRunStats) {
  // The bus counts every reference once and hands the sink the same
  // RefCounts it puts in RunStats — by PE, class and area included.
  for (const EngineCase& c : small_engine_cases()) {
    for (bool busy_only : {true, false}) {
      SCOPED_TRACE(case_name(c) + (busy_only ? " busy-only" : " keep-all"));
      TracedRun r = run_traced(c, busy_only);
      EXPECT_EQ(r.trace->counts(), r.stats.refs);
      EXPECT_EQ(r.trace->size(), busy_only ? r.stats.refs.busy : r.stats.refs.total);
    }
  }
}

TEST(StreamingPipeline, BusyOnlyTraceIsTheBusyFilterOfTheFullTrace) {
  // What the bus packs for a busy-only sink is exactly a naive busy
  // filter over the keep-all stream of the same run, re-chunked so that
  // every chunk but the last holds kChunkRefs references. The Paper
  // qsort run spans several chunks either way. The run without a sink
  // and the busy-only run take the quiet idle path, the keep-all run
  // the full one: all three give the same RunStats, by PE included.
  std::vector<EngineCase> cases = small_engine_cases();
  cases.push_back({"qsort", 8, BenchScale::Paper});
  for (const EngineCase& c : cases) {
    SCOPED_TRACE(case_name(c));
    RunStats none = run_stats(c, nullptr);
    TracedRun busy = run_traced(c, /*busy_only=*/true);
    TracedRun all = run_traced(c, /*busy_only=*/false);
    EXPECT_EQ(busy.stats, none);
    EXPECT_EQ(all.stats, none);
    std::vector<u64> filtered;
    for (u64 p : all.trace->to_packed())
      if (MemRef::unpack(p).busy) filtered.push_back(p);
    EXPECT_EQ(busy.trace->to_packed(), filtered);
    for (const TracedRun* r : {&busy, &all})
      for (std::size_t i = 0; i + 1 < r->trace->num_chunks(); ++i)
        EXPECT_EQ(r->trace->chunk(i).size(), kChunkRefs);
  }
}

/// A parcall whose creator is waiting when its third goal fails on
/// another PE while the second still runs on a third: the creator's
/// next poll sees the fail flag with a goal still pending.
constexpr const char* kWaitingCreatorKillProgram = R"PL(
    kf(A, B, C) :- spin(20, A) & spin(300, B) & late_fail(40, C).
    spin(0, 0).
    spin(N, S) :- N > 0, M is N - 1, spin(M, S0), S is S0 + 1.
    late_fail(N, C) :- spin(N, C), C > 1000.
  )PL";

TEST(StreamingPipeline, QuietIdleStepsCountLikeTheFullPathOnPropertyPrograms) {
  // The property-test programs kill running siblings, fail parcalls
  // and leave cancelled frames on goal stacks, at PE counts from 2 to
  // 16, with up to four solutions each: every run gives the same
  // RunStats without a sink, with a busy-only sink (both quiet) and
  // with a keep-all sink (full path). The cycle cap turns a quiet poll
  // that missed a fail flag into an error instead of a hang.
  struct PropCase {
    std::string name;
    std::string src;
    const char* goal;
  };
  std::vector<PropCase> cases;
  for (unsigned seed : kPropSeeds) {
    std::string src = make_prop_program(seed);
    cases.push_back({"pair/" + std::to_string(seed), src, "pair(A, B)."});
    cases.push_back({"gated/" + std::to_string(seed), src, "gated(A)."});
  }
  cases.push_back({"flaky-fib", kFlakyFibProgram, "main(F)."});
  cases.push_back({"tree", kTreeProgram, "tree(10, S)."});
  cases.push_back({"waiting-creator-kill", kWaitingCreatorKillProgram, "kf(A, B, C)."});
  for (const PropCase& c : cases) {
    Program prog;
    prog.consult(c.src);
    for (unsigned pes : {2u, 3u, 4u, 7u, 8u, 16u}) {
      SCOPED_TRACE(c.name + "/" + std::to_string(pes) + "pe");
      MachineConfig cfg;
      cfg.num_pes = pes;
      cfg.max_solutions = 4;
      cfg.max_cycles = 1'000'000;
      Machine m(prog, cfg);
      RunStats none = m.solve(c.goal).stats;
      ChunkingSink busy(/*busy_only=*/true), all(/*busy_only=*/false);
      EXPECT_EQ(m.solve(c.goal, &busy).stats, none);
      EXPECT_EQ(m.solve(c.goal, &all).stats, none);
      EXPECT_GT(none.refs.total, none.refs.busy);  // idle PEs polled or probed
    }
  }
}

TEST(StreamingPipeline, LibraryTraceFingerprintsAreStable) {
  // Checkpoint frames and server snapshot keys bind trace_fingerprint
  // (the chunks, the size and the counters), so it must stay stable.
  // The library wraps its sink in a CancelCheckSink, which must forward
  // the counters: num_pes() is part of the fingerprint.
  struct Pinned {
    const char* bench;
    unsigned pes;
    u64 fingerprint;
  } pinned[] = {{"qsort", 4, 0xa63adbc043b8fbd1ull},
                {"matrix", 8, 0xa460ba65e2caf996ull}};
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.bench);
    std::shared_ptr<const GeneratedTrace> g =
        TraceLibrary::instance().get(p.bench, BenchScale::Small, p.pes, /*wam=*/false);
    EXPECT_EQ(g->trace->num_pes(), p.pes);
    EXPECT_EQ(trace_fingerprint(*g->trace), p.fingerprint);
  }
}

}  // namespace
}  // namespace rapwam
