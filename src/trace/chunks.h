// Shared immutable chunk storage for the trace pipeline
// (docs/DESIGN.md §8).
//
// The generate-once/replay-many sweep path stores each generated trace
// as a ChunkedTrace — fixed-size packed chunks plus generation-time
// metadata (reference counters, PE span) — that any number of sweep
// points replay concurrently without copying or rescanning. A freed
// trace's chunks go to a bounded free list, from which the next
// generated or loaded trace takes its chunks.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/cancel.h"
#include "trace/memref.h"

namespace rapwam {

/// Immutable-after-build packed reference stream in kChunkRefs-sized
/// chunks. Metadata is recorded while the trace is generated, so
/// consumers never rescan the stream for it.
class ChunkedTrace {
 public:
  /// Returns the chunks to the free list.
  ~ChunkedTrace();

  /// Retained references (after any busy-only filtering).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_chunks() const { return chunks_.size(); }
  const std::vector<u64>& chunk(std::size_t i) const { return chunks_[i]; }

  /// Counters over everything the producer emitted (retained or not):
  /// the run's RunStats::refs, or the whole file for a loaded trace.
  const RefCounts& counts() const { return counts_; }
  /// PEs the trace was recorded on (metadata; no stream scan).
  unsigned num_pes() const { return counts_.pes(); }

  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    for (const std::vector<u64>& c : chunks_) fn(c.data(), c.size());
  }

  /// Materialized flat copy — tests and trace-file output only; sweep
  /// consumers replay the chunks in place.
  std::vector<u64> to_packed() const;

  /// The trace's identity, which checkpoint frames bind
  /// (docs/DESIGN.md §12): a hash of every
  /// retained word in order, size(), num_chunks(), the total, reads,
  /// writes and busy counters and num_pes(). Word i of the stream feeds
  /// lane i mod 4 of a word hash whose every step is a bijection, so
  /// any single-word change changes the value. Computed on the first
  /// call and memoized; concurrent first callers all get the one value.
  u64 fingerprint() const;

 private:
  friend class ChunkingSink;
  friend std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string&,
                                                                bool);
  std::vector<std::vector<u64>> chunks_;
  RefCounts counts_;
  std::size_t size_ = 0;
  mutable std::once_flag fingerprint_once_;
  mutable u64 fingerprint_ = 0;
};

/// Builds a ChunkedTrace from a reference stream. `busy_only` (the
/// default) asks the bus for busy references only, which is what the
/// cache simulators consume. Stores every reference it is given: the
/// bus packs into the trace's next chunk in place, and a stream handed
/// to on_chunk() is copied.
class ChunkingSink : public TraceSink {
 public:
  explicit ChunkingSink(bool busy_only = true);
  ChunkingSink(const ChunkingSink&) = delete;
  ChunkingSink& operator=(const ChunkingSink&) = delete;
  /// Returns the chunk lent to the bus, if any, to the free list.
  ~ChunkingSink() override;
  u64* chunk_storage() override;
  void commit_chunk(std::size_t n) override;
  void on_chunk(const u64* packed, std::size_t n) override;
  void on_counts(const RefCounts& c) override { trace_->counts_ = c; }

  /// Hands the finished trace over; the sink is empty afterwards.
  std::shared_ptr<const ChunkedTrace> take();

 private:
  std::shared_ptr<ChunkedTrace> trace_;
  std::vector<u64> open_;  ///< chunk_storage(): the bus fills it, then commits it
};

/// Forwards chunks to `inner`, checking a cancellation token first.
/// Wrapping the sink of a generation run makes the *producer* side of
/// the pipeline cancellable at chunk granularity — the emulator aborts
/// with CancelledError instead of finishing a run nobody is waiting
/// for (docs/DESIGN.md §10). A null token forwards unconditionally.
/// It keeps what `inner` keeps, lends the bus `inner`'s storage and
/// forwards the end-of-run counters.
class CancelCheckSink : public TraceSink {
 public:
  CancelCheckSink(TraceSink& inner, const CancelToken* cancel)
      : TraceSink(inner.busy_only()), inner_(inner), cancel_(cancel) {}
  u64* chunk_storage() override { return inner_.chunk_storage(); }
  void commit_chunk(std::size_t n) override {
    if (cancel_) cancel_->checkpoint();
    inner_.commit_chunk(n);
  }
  void on_chunk(const u64* packed, std::size_t n) override {
    if (cancel_) cancel_->checkpoint();
    inner_.on_chunk(packed, n);
  }
  void on_counts(const RefCounts& c) override { inner_.on_counts(c); }

 private:
  TraceSink& inner_;
  const CancelToken* cancel_;
};

/// Cap on the records of one trace file (docs/DESIGN.md §10): 2^24
/// references, 128 MiB. A trace file is loaded whole, so without a cap
/// one request naming a multi-gigabyte file ends in an out-of-memory
/// kill. The largest Paper-scale recording, qsort at 8 PEs, is 3.2 MB:
/// the cap leaves 40x headroom. cache/config.h keeps the simulator's
/// own cap, kMaxLineSlots.
inline constexpr u64 kMaxTraceFileRefs = u64(1) << 24;

/// Most chunks the free list keeps (docs/DESIGN.md §8): 12 MiB. A
/// freed trace's chunks wait there, still faulted in, for the next
/// generated or loaded trace; chunks beyond the bound are freed. The
/// most chunks live at once, counted over pipebench runs at three
/// seeds, are 9 in `generate` (one tak trace) and 20-22 in
/// `serve` (12 in the warmed bench traces, up to 10 in two workers'
/// trace-file loads), so neither workload ever frees a chunk it would
/// take again, and the list never holds more than they once held.
inline constexpr std::size_t kMaxPooledChunks = 24;

/// Bytes of chunk memory on the free list (the server's `stats`).
std::size_t chunk_pool_bytes();

/// Throws Error naming `path` and the cap when the file holds more than
/// kMaxTraceFileRefs records. Reads nothing; a file it cannot size is
/// left for the loader to report.
void check_trace_file_size(const std::string& path);

/// Loads a binary trace file (the FileTraceSink format) into shared
/// immutable chunk storage in one pass: each block of up to kChunkRefs
/// records is read straight into the end of the trace's current chunk,
/// taken from the free list when it has one.
/// Every record is validated before it is counted (packed_ref_valid:
/// truncated or corrupted files fail cleanly with Error, never index
/// per-class tables out of range), the RefCounts metadata covers every
/// record in the file, and `busy_only` keeps only the busy ones,
/// compacted in place so every chunk but the last still holds
/// kChunkRefs records — consumers read num_pes()/counts() instead of
/// rescanning the stream. A file above kMaxTraceFileRefs records fails
/// before any record is read.
std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string& path,
                                                       bool busy_only = false);

/// Appends packed chunks straight to a binary trace file (8 bytes per
/// reference, host order; each chunk is one fwrite). The bus packs
/// into one buffer of the sink's own, written out when it is full.
/// Recording a multi-million-reference trace this way needs O(chunk)
/// memory — nothing is materialized.
///
/// Crash-safe: the stream is written to `<path>.tmp` and atomically
/// renamed to `path` by close(), so `path` either doesn't exist or
/// holds a complete recording. An interrupted record (crash, thrown
/// exception unwinding past the sink) can never leave a truncated
/// file at `path` that a later load would silently accept as a short
/// trace — the format carries no length header, so a truncated prefix
/// of valid records is indistinguishable from a genuine short run.
/// The destructor without close() treats the recording as aborted and
/// removes the temporary.
class FileTraceSink : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path, bool busy_only = true);
  ~FileTraceSink() override;
  u64* chunk_storage() override;
  void commit_chunk(std::size_t n) override { on_chunk(buf_.get(), n); }
  void on_chunk(const u64* packed, std::size_t n) override;
  /// Flushes, closes and publishes the file at `path` (atomic rename
  /// from the temporary); throws on write failure. Idempotent.
  void close();

  u64 written() const { return written_; }
  /// Where the bytes go until close() publishes them.
  const std::string& temp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* f_ = nullptr;
  u64 written_ = 0;
  std::unique_ptr<u64[]> buf_;  ///< chunk_storage(), allocated on first use
};

}  // namespace rapwam
