// Property/fuzz tests for the packed trace codec and its file
// round-trip: randomized reference streams survive
// FileTraceSink -> file -> load_chunked_trace bit-for-bit (across chunk
// boundaries), the loader's busy filter is a naive busy filter with the
// same counters, its metadata matches a full-stream scan, and
// truncated/corrupted inputs fail cleanly with Error — they must never
// reach the per-class counters, whose tables an out-of-range object
// class would index out of bounds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// Fully random — but valid — packed references over the whole field
/// space: 40-bit addresses, all PEs, all classes, both flags.
std::vector<u64> fuzz_refs(u64 seed, std::size_t n) {
  Lcg rng(seed);
  std::vector<u64> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r;
    r.addr = (rng.next() << 20 | rng.next()) & 0xFFFFFFFFFFull;
    r.pe = static_cast<u8>(rng.next(64));
    r.cls = static_cast<ObjClass>(rng.next(kObjClassCount));
    r.write = rng.next(2) != 0;
    r.busy = rng.next(4) != 0;
    out.push_back(r.pack());
  }
  return out;
}

/// Unique temp file path, removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("rapwam_fuzz_" + tag + "_" +
               std::to_string(::getpid())))
                 .string()) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

void write_raw(const std::string& path, const void* data, std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (bytes) ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(TraceFuzz, PackUnpackRoundTripsEveryField) {
  for (u64 p : fuzz_refs(0x5EED, 50000)) {
    MemRef r = MemRef::unpack(p);
    EXPECT_EQ(r.pack(), p);
    EXPECT_TRUE(packed_ref_valid(p));
  }
}

TEST(TraceFuzz, FileRoundTripAcrossChunkBoundaries) {
  // Sizes straddling the kChunkRefs boundary, so the sink's chunking
  // and the loader's re-chunking are both exercised, plus empty.
  const std::size_t sizes[] = {0, 1, 1000, kChunkRefs - 1, kChunkRefs,
                               kChunkRefs + 1, kChunkRefs * 2 + 17};
  for (std::size_t n : sizes) {
    std::vector<u64> refs = fuzz_refs(0xF00D + n, n);
    TempFile tmp("roundtrip_" + std::to_string(n));
    {
      FileTraceSink sink(tmp.path, /*busy_only=*/false);
      // Deliver in uneven slices to decouple sink chunking from the
      // caller's chunking.
      std::size_t i = 0, step = 1;
      while (i < refs.size()) {
        std::size_t k = std::min(step, refs.size() - i);
        sink.on_chunk(refs.data() + i, k);
        i += k;
        step = step * 3 + 1;
      }
      sink.close();
      EXPECT_EQ(sink.written(), refs.size()) << n;
    }
    std::shared_ptr<const ChunkedTrace> t = load_chunked_trace(tmp.path);
    EXPECT_EQ(t->to_packed(), refs) << n;
    EXPECT_EQ(t->counts().total, refs.size()) << n;
  }
}

/// `refs` with only the busy references kept.
std::vector<u64> busy_filter(const std::vector<u64>& refs) {
  std::vector<u64> out;
  for (u64 p : refs)
    if (MemRef::unpack(p).busy) out.push_back(p);
  return out;
}

TEST(TraceFuzz, BusyFilterAtLoadMatchesNaiveFilter) {
  // The loader's one validate-count-filter loop reads a chunk at a
  // time: at file sizes around kChunkRefs a busy-only load must be the
  // naive busy filter of the keep-all load, re-chunked full-size, with
  // the same counters over every record in the file.
  for (std::size_t n : {kChunkRefs - 1, kChunkRefs, kChunkRefs + 1,
                        2 * kChunkRefs + 17}) {
    std::vector<u64> refs = fuzz_refs(0xB551 + n, n);
    TempFile tmp("busy_" + std::to_string(n));
    write_raw(tmp.path, refs.data(), refs.size() * 8);
    std::shared_ptr<const ChunkedTrace> all = load_chunked_trace(tmp.path, false);
    std::shared_ptr<const ChunkedTrace> busy = load_chunked_trace(tmp.path, true);
    EXPECT_EQ(all->to_packed(), refs) << n;
    EXPECT_EQ(busy->to_packed(), busy_filter(all->to_packed())) << n;
    EXPECT_EQ(busy->counts(), all->counts()) << n;
    EXPECT_EQ(busy->counts().busy, busy->size()) << n;
    for (std::size_t i = 0; i + 1 < busy->num_chunks(); ++i)
      EXPECT_EQ(busy->chunk(i).size(), kChunkRefs) << n;
  }
}

TEST(TraceFuzz, LoaderMetadataReplacesPesRescan) {
  // Regression for the metadata-less-file path: the PE span is built
  // once at load (validated counts), not rescanned per consumer.
  for (unsigned pes : {1u, 3u, 17u, 64u}) {
    Lcg rng(pes);
    std::vector<u64> refs;
    for (std::size_t i = 0; i < 5000; ++i) {
      MemRef r;
      r.addr = rng.next(1 << 20);
      r.pe = static_cast<u8>(rng.next(pes));
      r.busy = true;
      refs.push_back(r.pack());
    }
    // Force the top PE to appear so the span is exact.
    MemRef top;
    top.pe = static_cast<u8>(pes - 1);
    top.busy = true;
    refs.push_back(top.pack());

    TempFile tmp("pes_" + std::to_string(pes));
    write_raw(tmp.path, refs.data(), refs.size() * 8);
    std::shared_ptr<const ChunkedTrace> t = load_chunked_trace(tmp.path);
    unsigned max_pe = 0;  // a full-stream scan gives the same answer
    for (u64 p : t->to_packed()) max_pe = std::max(max_pe, unsigned(MemRef::unpack(p).pe));
    EXPECT_EQ(t->num_pes(), pes);
    EXPECT_EQ(t->num_pes(), max_pe + 1);
    EXPECT_EQ(t->counts().total, refs.size());
  }
}

// --- malformed inputs ------------------------------------------------------

TEST(TraceFuzz, TruncatedFileFailsCleanly) {
  std::vector<u64> refs = fuzz_refs(0x7077, 100);
  for (std::size_t cut : {1u, 3u, 7u}) {
    TempFile tmp("trunc_" + std::to_string(cut));
    write_raw(tmp.path, refs.data(), refs.size() * 8 - cut);
    EXPECT_THROW(load_chunked_trace(tmp.path), Error) << cut;
  }
}

TEST(TraceFuzz, MissingFileFailsCleanly) {
  EXPECT_THROW(load_chunked_trace("/nonexistent/rapwam_no_such.trc"), Error);
}

TEST(TraceFuzz, CorruptedRecordsAreRejectedBeforeAnyCounting) {
  std::vector<u64> refs = fuzz_refs(0xC0DE, 500);
  struct Corruption {
    const char* what;
    u64 (*mangle)(u64);
  } corruptions[] = {
      // Garbage above the packed fields (the usual smashed-header shape).
      {"high bits", [](u64 v) { return v | (u64(1) << 63); }},
      {"byte shift", [](u64 v) { return v << 8 | 0xFF; }},
      // An object class past Table 1's twelve rows: exactly the word
      // that would index traits_of() out of bounds if it got through.
      {"class 15", [](u64 v) { return (v & ~(u64(0xF) << 48)) | (u64(15) << 48); }},
      {"class 12", [](u64 v) { return (v & ~(u64(0xF) << 48)) | (u64(12) << 48); }},
  };
  for (const Corruption& c : corruptions) {
    for (std::size_t at : {std::size_t(0), refs.size() / 2, refs.size() - 1}) {
      std::vector<u64> bad = refs;
      bad[at] = c.mangle(bad[at]);
      TempFile tmp("corrupt");
      write_raw(tmp.path, bad.data(), bad.size() * 8);
      EXPECT_THROW(load_chunked_trace(tmp.path), Error)
          << c.what << " at " << at;
    }
  }
}

TEST(TraceFuzz, CorruptedRecordIndexCountsAcrossChunks) {
  // The loader reads one chunk at a time; the error still names the
  // record's index in the whole file.
  std::vector<u64> refs = fuzz_refs(0xC0DF, kChunkRefs + 100);
  refs[kChunkRefs + 5] |= u64(1) << 60;
  TempFile tmp("corrupt_late");
  write_raw(tmp.path, refs.data(), refs.size() * 8);
  try {
    load_chunked_trace(tmp.path);
    FAIL() << "expected the corrupted record to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupted record at index " +
                                         std::to_string(kChunkRefs + 5)),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceFuzz, RandomGarbageFileFailsCleanly) {
  // 4 KB of raw LCG output: bits 54..63 are essentially never all
  // clear, so validation must reject it (and must not crash first).
  Lcg rng(0xDEAD);
  std::vector<u64> junk;
  for (int i = 0; i < 512; ++i) junk.push_back(rng.next() | (u64(1) << 60));
  TempFile tmp("garbage");
  write_raw(tmp.path, junk.data(), junk.size() * 8);
  EXPECT_THROW(load_chunked_trace(tmp.path), Error);
}

}  // namespace
}  // namespace rapwam
