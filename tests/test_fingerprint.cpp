// The trace fingerprint (ChunkedTrace::fingerprint, docs/DESIGN.md §12),
// which checkpoint frames bind. Pinned here:
//
//   * a single-bit flip in the first word, at a chunk boundary or in
//     the last word of a partial chunk changes it, and so does a swap
//     of two adjacent records;
//   * the same words under different counters (total, reads, writes,
//     busy, PE count) give different values;
//   * concurrent first callers on one fresh trace all get the value a
//     later call returns (this suite runs under TSan);
//   * a keep-all generated trace and its trace-file round trip have
//     the same fingerprint, and trace_fingerprint() is the memo.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "harness/runner.h"
#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// Three chunks, the last one partial.
constexpr std::size_t kWords = 2 * kChunkRefs + 17;

/// Counters over every word of `words`, as a keep-all load makes them.
RefCounts counts_of(const std::vector<u64>& words) {
  RefCounts c;
  for (u64 w : words) c.add(MemRef::unpack(w));
  return c;
}

/// `words` as a trace carrying `counts`.
std::shared_ptr<const ChunkedTrace> trace_of(const std::vector<u64>& words,
                                             const RefCounts& counts) {
  ChunkingSink sink(/*busy_only=*/false);
  sink.on_chunk(words.data(), words.size());
  sink.on_counts(counts);
  return sink.take();
}

TEST(TraceFingerprint, SingleBitFlipChangesIt) {
  const std::vector<u64> words = random_trace(0xF1F1, 4, kWords);
  const RefCounts counts = counts_of(words);
  const u64 base = trace_of(words, counts)->fingerprint();
  ASSERT_EQ(trace_of(words, counts)->num_chunks(), 3u);
  // The counters stay those of the original, so only the word differs.
  for (std::size_t at : {std::size_t(0), kChunkRefs - 1, kChunkRefs, kWords - 1}) {
    for (unsigned bit : {0u, 17u, 39u, 40u, 48u, 53u, 63u}) {
      std::vector<u64> flipped = words;
      flipped[at] ^= u64(1) << bit;
      EXPECT_NE(trace_of(flipped, counts)->fingerprint(), base)
          << "word " << at << " bit " << bit;
    }
  }
}

TEST(TraceFingerprint, SwappingAdjacentRecordsChangesIt) {
  const std::vector<u64> words = random_trace(0x5A5A, 4, kWords);
  const RefCounts counts = counts_of(words);
  const u64 base = trace_of(words, counts)->fingerprint();
  // Within the first chunk, across the first chunk boundary, and at the
  // end of the partial last chunk.
  for (std::size_t at : {std::size_t(0), kChunkRefs - 1, kWords - 2}) {
    std::vector<u64> swapped = words;
    ASSERT_NE(swapped[at], swapped[at + 1]);
    std::swap(swapped[at], swapped[at + 1]);
    EXPECT_NE(trace_of(swapped, counts)->fingerprint(), base) << "words " << at;
  }
}

TEST(TraceFingerprint, CountersAreInputs) {
  const std::vector<u64> words = random_trace(0xC0C0, 4, 1000);
  const RefCounts counts = counts_of(words);
  const u64 base = trace_of(words, counts)->fingerprint();
  EXPECT_EQ(trace_of(words, counts)->fingerprint(), base);
  std::vector<RefCounts> changed(5, counts);
  ++changed[0].total;
  ++changed[1].reads;
  ++changed[2].writes;
  ++changed[3].busy;
  changed[4].by_pe[7] = 1;  // num_pes() 4 -> 8
  for (std::size_t i = 0; i < changed.size(); ++i)
    EXPECT_NE(trace_of(words, changed[i])->fingerprint(), base) << "counter " << i;
}

TEST(TraceFingerprint, ConcurrentFirstCallsAgree) {
  const std::vector<u64> words = random_trace(0x7777, 8, 3 * kChunkRefs);
  std::shared_ptr<const ChunkedTrace> t = trace_of(words, counts_of(words));
  constexpr int kThreads = 8;
  std::vector<u64> got(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      got[static_cast<std::size_t>(i)] = t->fingerprint();
    });
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], t->fingerprint()) << "thread " << i;
  // The memo holds what a fresh trace of the same words computes.
  EXPECT_EQ(t->fingerprint(), trace_of(words, t->counts())->fingerprint());
  EXPECT_EQ(trace_fingerprint(*t), t->fingerprint());
}

TEST(TraceFingerprint, GeneratedTraceAndItsFileAgree) {
  ChunkingSink sink(/*busy_only=*/false);
  run_into(bench_program("qsort", BenchScale::Paper), 2, /*strip=*/false, &sink);
  std::shared_ptr<const ChunkedTrace> t = sink.take();
  ASSERT_GT(t->num_chunks(), 1u);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rapwam_fingerprint_" + std::to_string(::getpid()) + ".trc"))
          .string();
  {
    FileTraceSink file(path, /*busy_only=*/false);
    t->for_each_chunk([&](const u64* p, std::size_t n) { file.on_chunk(p, n); });
    file.close();
  }
  std::shared_ptr<const ChunkedTrace> back = load_chunked_trace(path, /*busy_only=*/false);
  std::filesystem::remove(path);
  EXPECT_EQ(back->counts(), t->counts());
  EXPECT_EQ(back->num_chunks(), t->num_chunks());
  EXPECT_EQ(back->fingerprint(), t->fingerprint());
}

}  // namespace
}  // namespace rapwam
