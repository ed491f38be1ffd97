// Robustness of the trace pipeline under failure (docs/DESIGN.md §10):
// error-aware TraceLibrary memoization, crash-safe FileTraceSink
// publication, and cooperative cancellation through the sweep path. Every scenario here is a way a
// single bad request or unlucky run used to be able to wedge or poison
// a long-lived process.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "cache/sweep.h"
#include "harness/runner.h"
#include "harness/trace_lib.h"
#include "support/cancel.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("rapwam_rb_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

// --- TraceLibrary error-aware memoization ----------------------------------

TEST(TraceLibraryEviction, FailedGenerationIsRetriedNotCached) {
  TraceLibrary lib;
  // An unknown benchmark makes generation itself throw. The failure
  // must not be memoized: both calls throw (a cached broken future
  // would also throw, but the eviction counter tells them apart).
  EXPECT_THROW(lib.get("no_such_bench", BenchScale::Small, 2), Error);
  EXPECT_EQ(lib.failed_generations(), 1u);
  EXPECT_EQ(lib.size(), 0u);  // evicted, not parked
  EXPECT_THROW(lib.get("no_such_bench", BenchScale::Small, 2), Error);
  EXPECT_EQ(lib.failed_generations(), 2u);  // generated again, failed again
  EXPECT_EQ(lib.size(), 0u);
}

TEST(TraceLibraryEviction, FailureDoesNotPoisonOtherKeys) {
  TraceLibrary lib;
  EXPECT_THROW(lib.get("no_such_bench", BenchScale::Small, 2), Error);
  std::shared_ptr<const GeneratedTrace> good =
      lib.get("qsort", BenchScale::Small, 2);
  ASSERT_TRUE(good && good->trace);
  EXPECT_GT(good->trace->size(), 0u);
  EXPECT_EQ(lib.size(), 1u);  // only the good key is cached
}

TEST(TraceLibraryEviction, CancelledGenerationIsEvictedAndRetried) {
  TraceLibrary lib;
  // Already-expired deadline: the owner aborts its own generation at
  // the first chunk checkpoint and must evict the entry on the way out.
  CancelToken expired = CancelToken::with_deadline(std::chrono::milliseconds(0));
  EXPECT_THROW(lib.get("qsort", BenchScale::Small, 2, false, 1, &expired),
               CancelledError);
  EXPECT_EQ(lib.failed_generations(), 1u);
  EXPECT_EQ(lib.size(), 0u);
  // The next caller regenerates from scratch and succeeds.
  std::shared_ptr<const GeneratedTrace> good =
      lib.get("qsort", BenchScale::Small, 2);
  ASSERT_TRUE(good && good->trace);
  EXPECT_GT(good->trace->size(), 0u);
}

TEST(TraceLibraryEviction, ConcurrentGettersOfFailingKeyAllThrow) {
  TraceLibrary lib;
  constexpr int kThreads = 8;
  std::atomic<int> threw{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([&] {
      try {
        lib.get("no_such_bench", BenchScale::Small, 2);
      } catch (const Error&) {
        threw.fetch_add(1);
      }
    });
  for (std::thread& t : ts) t.join();
  // Everyone fails (either as the generating owner or as a waiter on
  // the owner's run), and nothing is left behind.
  EXPECT_EQ(threw.load(), kThreads);
  EXPECT_EQ(lib.size(), 0u);
  EXPECT_GE(lib.failed_generations(), 1u);
}

// --- FileTraceSink crash safety --------------------------------------------

TEST(FileTraceSinkSafety, AbortedRecordingLeavesNothingAtPath) {
  std::string path = temp_path("abort.trc");
  {
    FileTraceSink sink(path, /*busy_only=*/true);
    // Stream part of a real run into it, then "crash": destroy the
    // sink without close(), as stack unwinding through an exception
    // would.
    run_into(bench_program("qsort", BenchScale::Small), 2, false, &sink);
    EXPECT_GT(sink.written(), 0u);
    EXPECT_TRUE(fs::exists(sink.temp_path()));
    EXPECT_FALSE(fs::exists(path));  // nothing published mid-stream
  }
  EXPECT_FALSE(fs::exists(path));            // still nothing at the real path
  EXPECT_FALSE(fs::exists(path + ".tmp"));   // and the temporary is gone
}

TEST(FileTraceSinkSafety, MidStreamExceptionLeavesNothingAtPath) {
  std::string path = temp_path("throw.trc");
  struct Boom {};
  try {
    FileTraceSink sink(path, /*busy_only=*/true);
    std::vector<u64> chunk(16, MemRef{}.pack());
    sink.on_chunk(chunk.data(), chunk.size());
    throw Boom{};  // unwind across the live sink
  } catch (const Boom&) {
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FileTraceSinkSafety, ClosePublishesACompleteLoadableTrace) {
  std::string path = temp_path("ok.trc");
  u64 written = 0;
  {
    FileTraceSink sink(path, /*busy_only=*/true);
    run_into(bench_program("qsort", BenchScale::Small), 2, false, &sink);
    sink.close();
    written = sink.written();
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::shared_ptr<const ChunkedTrace> t = load_chunked_trace(path);
  EXPECT_EQ(t->size(), written);
  fs::remove(path);
}

// --- cooperative cancellation through the sweep path -----------------------

TEST(SweepCancellation, PreCancelledTokenAbortsRunSweep) {
  TraceLibrary lib;
  std::shared_ptr<const GeneratedTrace> g = lib.get("qsort", BenchScale::Small, 2);
  SweepPoint p;
  p.cfg = paper_cache_config(Protocol::WriteInBroadcast, 1024);
  p.num_pes = 2;
  p.chunks = g->trace.get();

  ThreadPool pool(2);
  CancelToken cancelled;
  cancelled.cancel();
  EXPECT_THROW(run_sweep(pool, {p, p, p, p}, &cancelled), CancelledError);

  // The same pool and points run fine without the token — cancellation
  // left no shared state behind.
  std::vector<SweepResult> r = run_sweep(pool, {p});
  EXPECT_GT(r.at(0).stats.refs, 0u);
}

TEST(SweepCancellation, NullTokenMatchesUncancelledReplayExactly) {
  // The token adds checkpoints, not behaviour: a run that never fires
  // must produce bit-identical stats with and without one.
  TraceLibrary lib;
  std::shared_ptr<const GeneratedTrace> g = lib.get("qsort", BenchScale::Small, 4);
  SweepPoint p;
  p.cfg = paper_cache_config(Protocol::Hybrid, 512);
  p.num_pes = 4;
  p.chunks = g->trace.get();

  ThreadPool pool(2);
  CancelToken generous = CancelToken::with_deadline(std::chrono::minutes(10));
  std::vector<SweepResult> with = run_sweep(pool, {p}, &generous);
  std::vector<SweepResult> without = run_sweep(pool, {p});
  EXPECT_EQ(with.at(0).stats.bus_words, without.at(0).stats.bus_words);
  EXPECT_EQ(with.at(0).stats.refs, without.at(0).stats.refs);
  EXPECT_EQ(with.at(0).stats.misses, without.at(0).stats.misses);
}

}  // namespace
}  // namespace rapwam
