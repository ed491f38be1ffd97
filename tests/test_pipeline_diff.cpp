// Differential tests of the chunked trace pipeline (DESIGN.md §8): the
// legacy materialize-then-replay path (TraceBuffer -> replay) and the
// generate-once chunked-fanout path (ChunkingSink -> ChunkedTrace ->
// replay) must produce bit-identical packed streams, TrafficStats and
// TimingStats for all five protocols on randomized traces — and for
// real emulator runs.
#include <gtest/gtest.h>

#include <vector>

#include "harness/runner.h"
#include "test_rand.h"
#include "timing/timed_replay.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// Emits `n` randomized references into `sink` in odd-sized bursts
/// (so chunk re-slicing is exercised), mixing busy and idle references
/// (so the busy-only filter is exercised), shared and private regions,
/// and all Table-1 object classes. Deterministic in `seed`.
void produce_random(TraceSink& sink, u64 seed, unsigned pes, std::size_t n) {
  Lcg rng(seed);
  std::vector<u64> burst;
  while (n > 0) {
    std::size_t len = std::min<std::size_t>(n, 1 + rng.next(4093));
    burst.clear();
    for (std::size_t i = 0; i < len; ++i) {
      MemRef r;
      r.pe = static_cast<u8>(rng.next(pes));
      r.addr = rng.next(3) == 0 ? rng.next(96) : 4096 + r.pe * 8192 + rng.next(2048);
      r.cls = static_cast<ObjClass>(rng.next(kObjClassCount));
      r.write = rng.next(5) < 2;
      r.busy = rng.next(5) != 0;  // ~20% idle refs, filtered by busy_only
      burst.push_back(r.pack());
    }
    sink.on_chunk(burst.data(), burst.size());
    n -= len;
  }
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
    TraceBuffer buf(/*busy_only=*/true);
    produce_random(buf, 0xFACE + pes, pes, 150000);
    ChunkingSink sink(/*busy_only=*/true);
    produce_random(sink, 0xFACE + pes, pes, 150000);
    std::shared_ptr<const ChunkedTrace> trace = sink.take();

    // Same retained stream, bit for bit, and the same counters.
    EXPECT_EQ(trace->size(), buf.size());
    EXPECT_EQ(trace->to_packed(), buf.packed());
    EXPECT_EQ(trace->counts().total, buf.counts().total);
    EXPECT_EQ(trace->counts().writes, buf.counts().writes);
    EXPECT_EQ(trace->counts().busy, buf.counts().busy);
    // Metadata recorded at generation time matches a full-stream scan.
    EXPECT_EQ(trace->num_pes(), buf.num_pes());
    EXPECT_GE(trace->num_pes(), pes_in_trace(buf.packed()));
    // Chunks are full-size except the last.
    for (std::size_t i = 0; i + 1 < trace->num_chunks(); ++i)
      EXPECT_EQ(trace->chunk(i).size(), kChunkRefs);
  }
}

TEST(StreamingPipeline, AllProtocolsChunkedReplayMatchesFlat) {
  for (Protocol p : kAllProtocols) {
    for (unsigned pes : {1u, 4u, 8u}) {
      ChunkingSink sink(true);
      produce_random(sink, 0xAB + static_cast<u64>(p) * 131 + pes, pes, 120000);
      std::shared_ptr<const ChunkedTrace> trace = sink.take();
      std::vector<u64> flat = trace->to_packed();

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
    ChunkingSink sink(true);
    produce_random(sink, 0x717 + static_cast<u64>(p), 4, 100000);
    std::shared_ptr<const ChunkedTrace> trace = sink.take();
    std::vector<u64> flat = trace->to_packed();

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

TEST(StreamingPipeline, EngineChunkedSinkMatchesTraceBuffer) {
  // The emulator's chunk-granularity emission must hand every sink the
  // same stream the legacy per-ref TraceBuffer saw: run the same
  // deterministic benchmark into both and compare bit for bit.
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  BenchRun buffered = run_parallel(bp, 4, /*want_trace=*/true);
  ChunkingSink sink(true);
  RunResult direct = run_into(bp, 4, /*strip=*/false, &sink);
  std::shared_ptr<const ChunkedTrace> trace = sink.take();

  EXPECT_EQ(direct.stats.instructions, buffered.result.stats.instructions);
  EXPECT_EQ(trace->to_packed(), buffered.trace->packed());
  EXPECT_EQ(trace->counts().total, buffered.trace->counts().total);
  EXPECT_EQ(trace->num_pes(), buffered.trace->num_pes());
}

}  // namespace
}  // namespace rapwam
