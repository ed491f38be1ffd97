// Trace infrastructure tests: packed record edge cases, the sink
// contract (sinks store what the bus keeps for them), file round trips
// and error handling, and consistency between engine counters and
// emitted traces.
#include <gtest/gtest.h>

#include "engine/machine.h"
#include "harness/runner.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

TEST(MemRefPacking, EdgeValues) {
  MemRef r;
  r.addr = (u64(1) << 40) - 1;  // max encodable address
  r.pe = 63;
  r.cls = ObjClass::Message;    // highest class id in Table 1
  r.write = true;
  r.busy = true;
  MemRef q = MemRef::unpack(r.pack());
  EXPECT_EQ(q.addr, r.addr);
  EXPECT_EQ(q.pe, r.pe);
  EXPECT_EQ(q.cls, r.cls);
  EXPECT_TRUE(q.write);
  EXPECT_TRUE(q.busy);

  MemRef zero;
  EXPECT_EQ(MemRef::unpack(zero.pack()).addr, 0u);
}

TEST(MemRefPacking, AllClassesSurvive) {
  for (std::size_t c = 0; c < kObjClassCount; ++c) {
    MemRef r;
    r.cls = static_cast<ObjClass>(c);
    EXPECT_EQ(MemRef::unpack(r.pack()).cls, r.cls);
  }
}

TEST(Sinks, ChunkingSinkStoresWhatItIsGiven) {
  // The busy filter and the counters live in the memory bus: a sink
  // only declares what it keeps and stores every reference handed to it.
  ChunkingSink busy_only(/*busy_only=*/true);
  EXPECT_TRUE(busy_only.busy_only());
  EXPECT_FALSE(ChunkingSink(/*busy_only=*/false).busy_only());
  MemRef r;
  r.busy = true;
  busy_only.on_ref(r);
  r.busy = false;
  busy_only.on_ref(r);
  RefCounts c;
  c.add(r);
  busy_only.on_counts(c);
  std::shared_ptr<const ChunkedTrace> t = busy_only.take();
  EXPECT_EQ(t->size(), 2u);
  EXPECT_EQ(t->counts(), c);
  // take() leaves an empty sink behind.
  EXPECT_EQ(busy_only.take()->size(), 0u);
}

TEST(Sinks, CancelCheckSinkForwardsBusyOnlyAndCounts) {
  for (bool keep_busy : {true, false}) {
    ChunkingSink inner(keep_busy);
    CancelCheckSink checked(inner, /*cancel=*/nullptr);
    EXPECT_EQ(checked.busy_only(), keep_busy);
    RunResult r = run_into(bench_program("qsort", BenchScale::Small), 4,
                           /*strip=*/false, &checked);
    std::shared_ptr<const ChunkedTrace> t = inner.take();
    EXPECT_EQ(t->counts(), r.stats.refs);
    EXPECT_EQ(t->num_pes(), 4u);
    EXPECT_EQ(t->size(), keep_busy ? r.stats.refs.busy : r.stats.refs.total);
  }
}

TEST(TraceFiles, RoundTripAndErrors) {
  std::vector<u64> data;
  for (u64 a : {1u, 2u, 3u}) {
    MemRef r;
    r.addr = a;
    r.pe = static_cast<u8>(a);
    data.push_back(r.pack());
  }
  std::string path = ::testing::TempDir() + "/t.trc";
  {
    FileTraceSink sink(path);
    sink.on_chunk(data.data(), data.size());
    sink.close();
  }
  EXPECT_EQ(load_chunked_trace(path)->to_packed(), data);
  {
    FileTraceSink empty(path);  // empty trace is fine
    empty.close();
  }
  EXPECT_TRUE(load_chunked_trace(path)->empty());
  EXPECT_THROW(load_chunked_trace("/nonexistent/dir/x.trc"), Error);
  EXPECT_THROW(FileTraceSink("/nonexistent/dir/x.trc"), Error);
}

TEST(EngineTracing, EveryAreaTaggedConsistently) {
  // Replay a parallel run and verify every reference's address maps to
  // the area its Table-1 class claims.
  ChunkingSink sink(/*busy_only=*/false);
  run_into(bench_program("qsort", BenchScale::Small), 4, /*strip=*/false, &sink);
  Layout lay(4, bench_area_sizes());
  std::vector<u64> trace = sink.take()->to_packed();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    MemRef m = MemRef::unpack(trace[i]);
    Area by_addr = lay.area_of(m.addr);
    Area by_class = traits_of(m.cls).area;
    ASSERT_EQ(by_addr, by_class)
        << "ref " << i << " class " << obj_class_name(m.cls) << " addr " << m.addr;
  }
}

TEST(EngineTracing, BusyRefsComeFromRunningWorkers) {
  ChunkingSink sink;
  RunResult r = run_into(bench_program("deriv", BenchScale::Small), 2,
                         /*strip=*/false, &sink);
  // The busy-only trace is exactly the "work" counter (Figure 2).
  EXPECT_EQ(sink.take()->size(), r.stats.work_refs());
  EXPECT_GT(r.stats.refs.total, r.stats.work_refs());
}

TEST(EngineTracing, SequentialRunTouchesNoParallelAreas) {
  const RefCounts c = run_wam(bench_program("deriv", BenchScale::Small)).stats.refs;
  EXPECT_EQ(c.by_area[static_cast<size_t>(Area::GoalStack)], 0u);
  EXPECT_EQ(c.by_area[static_cast<size_t>(Area::MsgBuffer)], 0u);
  EXPECT_EQ(c.by_class[static_cast<size_t>(ObjClass::Marker)], 0u);
  EXPECT_EQ(c.by_class[static_cast<size_t>(ObjClass::ParcallCount)], 0u);
}

TEST(EngineTracing, KillsProduceMessageTraffic) {
  const char* src =
      "a :- slow & fast. "
      "slow :- burn(12). "
      "burn(0) :- !. "
      "burn(N) :- N1 is N - 1, burn(N1), burn(N1). "
      "fast :- fail.";
  Program prog;
  prog.consult(src);
  MachineConfig cfg;
  cfg.num_pes = 2;
  Machine m(prog, cfg);
  ChunkingSink sink(/*busy_only=*/false);
  RunResult r = m.solve("a.", &sink);
  EXPECT_FALSE(r.success);
  if (r.stats.kills > 0) {
    EXPECT_GT(sink.take()->counts().by_area[static_cast<size_t>(Area::MsgBuffer)], 0u);
  }
}

TEST(EngineTracing, PerPECountsSumToTotal) {
  const RefCounts c = run_parallel(bench_program("tak", BenchScale::Small), 4).stats.refs;
  u64 sum = 0;
  for (u64 n : c.by_pe) sum += n;
  EXPECT_EQ(sum, c.total);
  // More than one PE actually issued references.
  int active = 0;
  for (u64 n : c.by_pe)
    if (n) ++active;
  EXPECT_GT(active, 1);
}

}  // namespace
}  // namespace rapwam
