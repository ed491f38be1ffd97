#include "trace/chunks.h"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <utility>

#include "support/atomic_file.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace rapwam {

// --- The chunk free list --------------------------------------------------

namespace {

/// Freed chunks, kept faulted in for the next trace (docs/DESIGN.md
/// §8). Traces are freed on sweep-pool and server threads, so a mutex
/// guards the list; it is taken once per chunk handed out and once per
/// freed trace. Under AddressSanitizer a chunk on the list is
/// poisoned, so a read through a freed trace still fails loudly.
class ChunkPool {
 public:
  ChunkPool() { free_.reserve(kMaxPooledChunks); }

  /// A chunk with capacity for kChunkRefs references and unspecified
  /// contents: the last one freed, or a new one.
  std::vector<u64> take() {
    {
      std::scoped_lock lk(mu_);
      if (!free_.empty()) {
        std::vector<u64> c = std::move(free_.back());
        free_.pop_back();
        ASAN_UNPOISON_MEMORY_REGION(c.data(), kChunkBytes);
        return c;
      }
    }
    std::vector<u64> c;
    c.reserve(kChunkRefs);
    return c;
  }

  /// Keeps each of `chunks` while the list has room; the caller frees
  /// the ones left behind.
  void give_back(std::span<std::vector<u64>> chunks) {
    std::scoped_lock lk(mu_);
    for (std::vector<u64>& c : chunks) {
      if (free_.size() == kMaxPooledChunks) return;
      if (c.capacity() != kChunkRefs) continue;
      ASAN_POISON_MEMORY_REGION(c.data(), kChunkBytes);
      free_.push_back(std::move(c));
    }
  }

  std::size_t bytes() {
    std::scoped_lock lk(mu_);
    return free_.size() * kChunkBytes;
  }

 private:
  static constexpr std::size_t kChunkBytes = kChunkRefs * sizeof(u64);
  std::mutex mu_;
  std::vector<std::vector<u64>> free_;
};

/// Never destroyed: the TraceLibrary singleton's traces are freed during
/// static destruction, and their chunks still need a list to go to.
ChunkPool& chunk_pool() {
  static ChunkPool* pool = new ChunkPool;
  return *pool;
}

}  // namespace

std::size_t chunk_pool_bytes() { return chunk_pool().bytes(); }

// --- ChunkedTrace ---------------------------------------------------------

namespace {

// XXH64's primes and round. For a fixed word a round is a bijection of
// the state (an add, a rotation, a multiply by an odd constant), and
// for a fixed state a bijection of the word, so a changed word changes
// its lane and every later round carries the change to the result.
constexpr u64 kP1 = 0x9E3779B185EBCA87ull;
constexpr u64 kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr u64 kP3 = 0x165667B19E3779F9ull;
constexpr u64 kP5 = 0x27D4EB2F165667C5ull;

inline u64 hash_round(u64 acc, u64 w) { return std::rotl(acc + w * kP2, 31) * kP1; }

}  // namespace

ChunkedTrace::~ChunkedTrace() { chunk_pool().give_back(chunks_); }

std::vector<u64> ChunkedTrace::to_packed() const {
  std::vector<u64> out;
  out.reserve(size_);
  for (const std::vector<u64>& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  return out;
}

u64 ChunkedTrace::fingerprint() const {
  std::call_once(fingerprint_once_, [this] {
    // Word i of the stream feeds lane i mod 4, so the lanes' multiplies
    // overlap instead of forming one chain. Every chunk but the last
    // holds kChunkRefs words, a multiple of four, so each starts at lane 0.
    static_assert(kChunkRefs % 4 == 0);
    std::array<u64, 4> lane = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (const std::vector<u64>& c : chunks_) {
      std::size_t i = 0;
      for (; i + 4 <= c.size(); i += 4)
        for (std::size_t k = 0; k < 4; ++k) lane[k] = hash_round(lane[k], c[i + k]);
      for (std::size_t k = 0; i + k < c.size(); ++k) lane[k] = hash_round(lane[k], c[i + k]);
    }
    // The lanes, then the header, fold in with the same round; XXH64's
    // avalanche (xorshifts and odd multiplies, each a bijection) mixes.
    u64 h = kP5;
    for (u64 v : lane) h = hash_round(h, v);
    for (u64 v : {u64(size_), u64(chunks_.size()), counts_.total, counts_.reads,
                  counts_.writes, counts_.busy, u64(num_pes())})
      h = hash_round(h, v);
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    fingerprint_ = h;
  });
  return fingerprint_;
}

// --- ChunkingSink ---------------------------------------------------------

ChunkingSink::ChunkingSink(bool busy_only)
    : TraceSink(busy_only), trace_(std::make_shared<ChunkedTrace>()) {}

ChunkingSink::~ChunkingSink() {
  chunk_pool().give_back({&open_, 1});
}

u64* ChunkingSink::chunk_storage() {
  if (open_.capacity() == 0) open_ = chunk_pool().take();
  // Zero-fills only what no trace has used yet: a new chunk, or the
  // tail of a trace's last, partial chunk.
  open_.resize(kChunkRefs);
  return open_.data();
}

void ChunkingSink::commit_chunk(std::size_t n) {
  open_.resize(n);
  trace_->chunks_.push_back(std::exchange(open_, {}));
  trace_->size_ += n;
}

void ChunkingSink::on_chunk(const u64* packed, std::size_t n) {
  std::vector<std::vector<u64>>& chunks = trace_->chunks_;
  trace_->size_ += n;
  while (n > 0) {
    if (chunks.empty() || chunks.back().size() == kChunkRefs) {
      chunks.push_back(chunk_pool().take());
      chunks.back().clear();
    }
    std::vector<u64>& last = chunks.back();
    std::size_t k = std::min(n, kChunkRefs - last.size());
    last.insert(last.end(), packed, packed + k);
    packed += k;
    n -= k;
  }
}

std::shared_ptr<const ChunkedTrace> ChunkingSink::take() {
  std::shared_ptr<const ChunkedTrace> out = std::move(trace_);
  trace_ = std::make_shared<ChunkedTrace>();
  return out;
}

namespace {

void check_trace_file_refs(const std::string& path, u64 bytes) {
  if (bytes / 8 > kMaxTraceFileRefs)
    fail("trace file " + path + " holds " + std::to_string(bytes / 8) +
         " records, above the cap of " + std::to_string(kMaxTraceFileRefs) +
         " (" + std::to_string(kMaxTraceFileRefs * 8 >> 20) + " MiB)");
}

}  // namespace

void check_trace_file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) check_trace_file_refs(path, bytes);
}

std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string& path,
                                                       bool busy_only) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (!f) fail("cannot open trace file for reading: " + path);
  std::fseek(f.get(), 0, SEEK_END);
  long bytes = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (bytes < 0 || bytes % 8 != 0) fail("trace file has invalid size: " + path);
  check_trace_file_refs(path, static_cast<u64>(bytes));

  auto t = std::make_shared<ChunkedTrace>();
  std::vector<std::vector<u64>>& chunks = t->chunks_;
  // Two increments per record: by bits 48..53 (class, write, busy) and
  // by PE. They are folded into RefCounts once, after the last record.
  std::array<u64, 64> by_kind{};
  std::array<u64, kMaxTracePes> by_pe{};
  // The bits a kept record has set: the busy bit, or none.
  const u64 keep = busy_only ? u64(1) << 53 : 0;
  std::size_t left = static_cast<std::size_t>(bytes) / 8;
  // The last chunk holds kChunkRefs words while it fills; the first
  // `at` are kept records.
  std::size_t at = kChunkRefs;
  for (std::size_t index = 0; left > 0;) {
    if (at == kChunkRefs) {
      chunks.push_back(chunk_pool().take());
      chunks.back().resize(kChunkRefs);
      at = 0;
    }
    std::size_t n = std::min(left, kChunkRefs - at);
    u64* p = chunks.back().data() + at;
    if (std::fread(p, sizeof(u64), n, f.get()) != n)
      fail("short read from trace file: " + path);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u64 v = p[i];
      if (!packed_ref_valid(v))
        fail("trace file " + path + ": corrupted record at index " +
             std::to_string(index + i));
      ++by_kind[v >> 48];
      ++by_pe[(v >> 40) & 0xFF];
      p[kept] = v;  // busy-only: compact in place, the chunk keeps filling
      kept += (v & keep) == keep;
    }
    at += kept;
    t->size_ += kept;
    index += n;
    left -= n;
  }
  if (!chunks.empty()) {
    chunks.back().resize(at);
    if (at == 0) {
      chunk_pool().give_back({&chunks.back(), 1});
      chunks.pop_back();
    }
  }
  for (u64 k = 0; k < by_kind.size(); ++k)
    if (by_kind[k]) t->counts_.add(MemRef::unpack(k << 48), by_kind[k]);
  t->counts_.by_pe = by_pe;  // add() booked every record to PE 0
  return t;
}

// --- FileTraceSink --------------------------------------------------------

FileTraceSink::FileTraceSink(const std::string& path, bool busy_only)
    : TraceSink(busy_only),
      path_(path),
      tmp_path_(path + ".tmp"),
      f_(std::fopen(tmp_path_.c_str(), "wb")) {
  if (!f_) fail("cannot open trace file for writing: " + tmp_path_);
}

FileTraceSink::~FileTraceSink() {
  if (!f_) return;
  // Destroyed without close(): the recording was aborted (an exception
  // is unwinding past us, or the caller gave up). Drop the partial
  // temporary instead of publishing a truncated trace.
  std::fclose(f_);
  std::remove(tmp_path_.c_str());
}

u64* FileTraceSink::chunk_storage() {
  if (!buf_) buf_ = std::make_unique_for_overwrite<u64[]>(kChunkRefs);
  return buf_.get();
}

void FileTraceSink::on_chunk(const u64* packed, std::size_t n) {
  RW_CHECK(f_, "write to a closed trace file sink");
  if (n != 0 && std::fwrite(packed, sizeof(u64), n, f_) != n)
    fail("short write to trace file: " + path_);
  written_ += n;
}

void FileTraceSink::close() {
  if (!f_) return;
  // Durable publish (support/atomic_file.h): sync the temporary's data
  // before the rename and the directory after it, so a crash right
  // after close() cannot leave an empty or partial recording under the
  // final name — the rename may be durable before the data otherwise.
  try {
    flush_and_sync(f_, "trace file " + tmp_path_);
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    std::remove(tmp_path_.c_str());
    throw;
  }
  int rc = std::fclose(f_);
  f_ = nullptr;
  if (rc != 0) {
    std::remove(tmp_path_.c_str());
    fail("error closing trace file: " + tmp_path_);
  }
  // Publish atomically: rename within the same directory, so readers
  // see either no file or the complete recording, never a prefix.
  publish_file(tmp_path_, path_);
}

}  // namespace rapwam
