// The chunk free list (docs/DESIGN.md §8): a freed trace's chunks go to
// a bounded list, and the bus, ChunkingSink and load_chunked_trace take
// their chunks from it. A trace built on reused chunks — the tail of a
// partial chunk included — must equal one built on new memory, word for
// word and in its counters; a stopped generation must give its chunks
// back; the list must never hold more than kMaxPooledChunks; and
// concurrent generation, loading and freeing must stay bit-identical
// (this suite runs under TSan and ASan in CI).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/bus.h"
#include "harness/programs.h"
#include "harness/runner.h"
#include "server/protocol.h"
#include "test_rand.h"
#include "test_service.h"
#include "trace/chunks.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rapwam {
namespace {

constexpr std::size_t kChunkBytes = kChunkRefs * sizeof(u64);

/// Takes every chunk off the free list and holds it while the returned
/// trace lives, so the chunks a test frees next are the only ones there.
std::shared_ptr<const ChunkedTrace> drain_pool() {
  std::vector<u64> words(kMaxPooledChunks * kChunkRefs);
  ChunkingSink sink(/*busy_only=*/false);
  sink.on_chunk(words.data(), words.size());
  EXPECT_EQ(chunk_pool_bytes(), 0u);
  return sink.take();
}

std::set<const u64*> chunk_data(const ChunkedTrace& t) {
  std::set<const u64*> out;
  for (std::size_t i = 0; i < t.num_chunks(); ++i) out.insert(t.chunk(i).data());
  return out;
}

std::shared_ptr<const ChunkedTrace> generate(const char* bench, unsigned pes,
                                             bool busy_only) {
  ChunkingSink sink(busy_only);
  run_into(bench_program(bench, BenchScale::Paper), pes, /*strip=*/false, &sink);
  return sink.take();
}

void expect_same_trace(const ChunkedTrace& got, const ChunkedTrace& want) {
  EXPECT_EQ(got.to_packed(), want.to_packed());
  EXPECT_EQ(got.counts(), want.counts());
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  for (std::size_t i = 0; i < got.num_chunks(); ++i)
    EXPECT_EQ(got.chunk(i).size(), want.chunk(i).size()) << i;
}

/// A trace file of `refs`, removed on destruction.
struct TraceFile {
  std::string path;
  TraceFile(const std::string& tag, const std::vector<u64>& refs)
      : path((std::filesystem::temp_directory_path() /
              ("rapwam_pool_" + tag + "_" + std::to_string(::getpid()) + ".trc"))
                 .string()) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!f) return;
    if (!refs.empty()) {
      EXPECT_EQ(std::fwrite(refs.data(), sizeof(u64), refs.size(), f), refs.size());
    }
    std::fclose(f);
  }
  ~TraceFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(ChunkPool, ReusedChunksGiveTheSameTrace) {
  // The busy-only 4-PE tak trace spans three chunks. Built again on the
  // chunks of two larger keep-all traces whose last chunks are partial,
  // it must not change by a word.
  std::shared_ptr<const ChunkedTrace> want = generate("tak", 4, true);
  ASSERT_EQ(want->num_chunks(), 3u);
  std::shared_ptr<const ChunkedTrace> hold = drain_pool();
  std::set<const u64*> freed;
  for (const char* bench : {"tak", "deriv"}) {
    std::shared_ptr<const ChunkedTrace> all = generate(bench, 4, false);
    ASSERT_LT(all->chunk(all->num_chunks() - 1).size(), kChunkRefs) << bench;
    std::set<const u64*> d = chunk_data(*all);
    freed.insert(d.begin(), d.end());
  }
  EXPECT_EQ(chunk_pool_bytes(), freed.size() * kChunkBytes);
  std::shared_ptr<const ChunkedTrace> got = generate("tak", 4, true);
  expect_same_trace(*got, *want);
  EXPECT_EQ(got->fingerprint(), want->fingerprint());
  for (const u64* p : chunk_data(*got)) EXPECT_TRUE(freed.count(p)) << p;
  EXPECT_EQ(chunk_pool_bytes(), (freed.size() - got->num_chunks()) * kChunkBytes);
}

TEST(ChunkPool, ChunksFillToTheBoundaryAndAnEmptyRunHasNone) {
  // The bus fills the storage its sink lends it: every chunk but the
  // last holds kChunkRefs, a run that ends on a boundary leaves no empty
  // chunk behind, and a run that keeps nothing yields no chunk at all.
  Layout layout(1, bench_area_sizes());
  const u64 addr = layout.base(0, Area::Heap);
  for (std::size_t n : {std::size_t(0), std::size_t(1), kChunkRefs - 1, kChunkRefs,
                        kChunkRefs + 1, 2 * kChunkRefs}) {
    for (bool busy : {true, false}) {
      SCOPED_TRACE(std::to_string(n) + (busy ? " busy" : " idle"));
      MemBus bus(layout);
      ChunkingSink sink(/*busy_only=*/true);
      bus.set_sink(&sink);
      for (std::size_t i = 0; i < n; ++i) bus.read(0, addr + i % 64, ObjClass::HeapTerm, busy);
      bus.finish();
      std::shared_ptr<const ChunkedTrace> t = sink.take();
      EXPECT_EQ(t->counts().total, n);
      const std::size_t kept = busy ? n : 0;
      EXPECT_EQ(t->size(), kept);
      ASSERT_EQ(t->num_chunks(), (kept + kChunkRefs - 1) / kChunkRefs);
      for (std::size_t i = 0; i < t->num_chunks(); ++i)
        EXPECT_EQ(t->chunk(i).size(), std::min(kChunkRefs, kept - i * kChunkRefs)) << i;
    }
  }
}

/// Forwards to `inner` and cancels `token` once `n` chunks are committed.
class CancelAfterChunks : public TraceSink {
 public:
  CancelAfterChunks(ChunkingSink& inner, CancelToken& token, int n)
      : TraceSink(inner.busy_only()), inner_(inner), token_(token), left_(n) {}
  u64* chunk_storage() override { return inner_.chunk_storage(); }
  void commit_chunk(std::size_t n) override {
    inner_.commit_chunk(n);
    if (--left_ == 0) token_.cancel();
  }
  void on_chunk(const u64* packed, std::size_t n) override { inner_.on_chunk(packed, n); }

 private:
  ChunkingSink& inner_;
  CancelToken& token_;
  int left_;
};

TEST(ChunkPool, StoppedGenerationsReturnTheirChunks) {
  // A generation that max_steps stops, or whose token is cancelled at
  // its third chunk, gives back its committed chunks and the chunk the
  // bus was filling. The next run is bit-identical to one made before.
  const BenchProgram qsort = bench_program("qsort", BenchScale::Paper);
  ChunkingSink first;
  const u64 instructions = run_into(qsort, 1, false, &first).stats.instructions;
  std::shared_ptr<const ChunkedTrace> want = first.take();
  ASSERT_GE(want->num_chunks(), 4u);
  for (bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancelled" : "max_steps");
    std::shared_ptr<const ChunkedTrace> hold = drain_pool();
    std::size_t committed = 0;
    {
      ChunkingSink sink;
      if (cancel) {
        CancelToken token;
        CancelAfterChunks counting(sink, token, 2);
        CancelCheckSink checked(counting, &token);
        EXPECT_THROW(run_into(qsort, 1, false, &checked), CancelledError);
      } else {
        ResourceLimits limits;
        limits.max_steps = instructions / 2;
        EXPECT_THROW(run_into(qsort, 1, false, &sink, 1, limits), ResourceExhaustedError);
      }
      committed = sink.take()->num_chunks();
      EXPECT_GE(committed, 2u);
    }
    EXPECT_EQ(chunk_pool_bytes(), (committed + 1) * kChunkBytes);
    ChunkingSink again;
    run_into(qsort, 1, false, &again);
    expect_same_trace(*again.take(), *want);
  }
}

TEST(ChunkPool, SecondLoadOfEachFuzzFileReusesChunks) {
  // TraceFuzz's file sizes, loaded twice: the second load reads into
  // the first one's freed chunks and gives the same trace, keep-all
  // and busy-only.
  for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(1000), kChunkRefs - 1,
                        kChunkRefs, kChunkRefs + 1, 2 * kChunkRefs + 17}) {
    TraceFile file("fuzz_" + std::to_string(n), fuzz_refs(0xF00D + n, n));
    for (bool busy_only : {false, true}) {
      SCOPED_TRACE(std::to_string(n) + (busy_only ? " busy-only" : " keep-all"));
      std::shared_ptr<const ChunkedTrace> hold = drain_pool();
      std::shared_ptr<const ChunkedTrace> first = load_chunked_trace(file.path, busy_only);
      std::vector<u64> words = first->to_packed();
      const RefCounts counts = first->counts();
      std::set<const u64*> freed = chunk_data(*first);
      first.reset();
      std::shared_ptr<const ChunkedTrace> second = load_chunked_trace(file.path, busy_only);
      EXPECT_EQ(second->to_packed(), words);
      EXPECT_EQ(second->counts(), counts);
      EXPECT_EQ(chunk_data(*second), freed);
      for (std::size_t i = 0; i + 1 < second->num_chunks(); ++i)
        EXPECT_EQ(second->chunk(i).size(), kChunkRefs) << i;
    }
  }
}

TEST(ChunkPool, FreeingPastTheBoundKeepsTheBound) {
  std::shared_ptr<const ChunkedTrace> hold = drain_pool();
  {
    std::vector<u64> words((kMaxPooledChunks + 3) * kChunkRefs - 5);
    ChunkingSink sink(/*busy_only=*/false);
    sink.on_chunk(words.data(), words.size());
    EXPECT_EQ(sink.take()->num_chunks(), kMaxPooledChunks + 3);
  }
  EXPECT_EQ(chunk_pool_bytes(), kMaxPooledChunks * kChunkBytes);
  hold.reset();
  EXPECT_EQ(chunk_pool_bytes(), kMaxPooledChunks * kChunkBytes);
}

TEST(ChunkPool, ConcurrentGenerateLoadAndFreeStayBitIdentical) {
  const std::vector<u64> refs = fuzz_refs(0xC0C0, 2 * kChunkRefs + 17);
  TraceFile file("concurrent", refs);
  std::shared_ptr<const ChunkedTrace> want_run = generate("deriv", 2, true);
  std::shared_ptr<const ChunkedTrace> want_file = load_chunked_trace(file.path, true);
  ASSERT_GE(want_run->num_chunks(), 2u);
  std::vector<std::thread> threads;
  std::vector<int> bad(4, 0);
  for (int k = 0; k < 4; ++k)
    threads.emplace_back([&, k] {
      for (int i = 0; i < 3; ++i) {
        std::shared_ptr<const ChunkedTrace> run = generate("deriv", 2, true);
        std::shared_ptr<const ChunkedTrace> loaded = load_chunked_trace(file.path, true);
        bad[k] += run->to_packed() != want_run->to_packed() ||
                  run->counts() != want_run->counts() ||
                  loaded->to_packed() != want_file->to_packed() ||
                  loaded->counts() != want_file->counts();
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad, std::vector<int>(4, 0));
  EXPECT_LE(chunk_pool_bytes(), kMaxPooledChunks * kChunkBytes);
}

TEST(ChunkPool, ServerStatsCountTheListAfterAFileReplay) {
  // The server's file replay loads the file into three chunks and frees
  // them after replying; `stats` then counts them on the list.
  TraceFile file("server", fuzz_refs(0x5E4E, 2 * kChunkRefs + 17));
  std::shared_ptr<const ChunkedTrace> hold = drain_pool();
  ServiceConfig cfg;
  cfg.workers = 1;
  BoundedService svc(cfg);
  auto pool_bytes = [&] {
    Response st = svc.ask(R"({"op":"stats"})");
    EXPECT_TRUE(st.ok) << st.message;
    const JsonValue* v = st.ok ? st.result.find("trace_chunk_pool_bytes") : nullptr;
    EXPECT_NE(v, nullptr);
    return v ? v->as_int() : -1;
  };
  EXPECT_EQ(pool_bytes(), 0);
  const std::string replay = R"({"op":"replay","trace":")" + file.path + R"("})";
  for (int i = 0; i < 2; ++i) {
    Response r = svc.ask(replay);
    EXPECT_TRUE(r.ok) << r.code << ": " << r.message;
    EXPECT_EQ(pool_bytes(), static_cast<i64>(3 * kChunkBytes)) << i;
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ChunkPool, ChunksOnTheListArePoisoned) {
  std::shared_ptr<const ChunkedTrace> hold = drain_pool();
  std::vector<u64> words(2 * kChunkRefs);
  std::shared_ptr<const ChunkedTrace> t = chunked(words);
  std::set<const u64*> freed = chunk_data(*t);
  t.reset();
  for (const u64* p : freed) {
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_TRUE(__asan_address_is_poisoned(p + kChunkRefs - 1));
  }
  std::shared_ptr<const ChunkedTrace> taken = chunked(words);
  EXPECT_EQ(chunk_data(*taken), freed);
  for (const u64* p : freed) {
    EXPECT_FALSE(__asan_address_is_poisoned(p));
    EXPECT_FALSE(__asan_address_is_poisoned(p + kChunkRefs - 1));
  }
}
#endif

}  // namespace
}  // namespace rapwam
