// Shared immutable chunk storage for the trace pipeline
// (docs/DESIGN.md §8).
//
// The generate-once/replay-many sweep path stores each generated trace
// as a ChunkedTrace — fixed-size packed chunks plus generation-time
// metadata (reference counters, PE span) — that any number of sweep
// points replay concurrently without copying or rescanning.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "support/cancel.h"
#include "trace/tracebuf.h"

namespace rapwam {

/// Immutable-after-build packed reference stream in kChunkRefs-sized
/// chunks. Metadata is recorded while the trace is generated, so
/// consumers never rescan the stream for it.
class ChunkedTrace {
 public:
  /// Retained references (after any busy-only filtering).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_chunks() const { return chunks_.size(); }
  const std::vector<u64>& chunk(std::size_t i) const { return chunks_[i]; }

  /// Counters over everything the producer emitted (retained or not),
  /// exactly as a TraceBuffer attached to the same run would count.
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

 private:
  friend class ChunkingSink;
  std::vector<std::vector<u64>> chunks_;
  RefCounts counts_;
  std::size_t size_ = 0;
};

/// Builds a ChunkedTrace from a reference stream (optionally keeping
/// only busy references, which is what the cache simulators consume).
class ChunkingSink : public TraceSink {
 public:
  explicit ChunkingSink(bool busy_only = true);
  void on_chunk(const u64* packed, std::size_t n) override;

  /// Hands the finished trace over; the sink is empty afterwards.
  std::shared_ptr<const ChunkedTrace> take();

 private:
  bool busy_only_;
  std::shared_ptr<ChunkedTrace> trace_;
};

/// Forwards chunks to `inner`, checking a cancellation token first.
/// Wrapping the sink of a generation run makes the *producer* side of
/// the pipeline cancellable at chunk granularity — the emulator aborts
/// with CancelledError instead of finishing a run nobody is waiting
/// for (docs/DESIGN.md §10). A null token forwards unconditionally.
class CancelCheckSink : public TraceSink {
 public:
  CancelCheckSink(TraceSink& inner, const CancelToken* cancel)
      : inner_(inner), cancel_(cancel) {}
  void on_chunk(const u64* packed, std::size_t n) override {
    if (cancel_) cancel_->checkpoint();
    inner_.on_chunk(packed, n);
  }

 private:
  TraceSink& inner_;
  const CancelToken* cancel_;
};

/// Loads a binary trace file (the save_trace format) into shared
/// immutable chunk storage. Every record is validated up front
/// (packed_ref_valid: truncated or corrupted files fail cleanly with
/// Error, never index per-class tables out of range) and the RefCounts
/// metadata is built once here — consumers read num_pes()/counts()
/// instead of rescanning the stream per use, which is what the
/// full-scan pes_in_trace() helper used to cost every command that
/// touched a loaded trace.
std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string& path,
                                                       bool busy_only = false);

/// Appends packed chunks straight to a binary trace file (the
/// save_trace format: 8 bytes per reference, host order). Recording a
/// multi-million-reference trace this way needs O(chunk) memory —
/// nothing is materialized.
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
  void on_chunk(const u64* packed, std::size_t n) override;
  /// Flushes, closes and publishes the file at `path` (atomic rename
  /// from the temporary); throws on write failure. Idempotent.
  void close();

  u64 written() const { return written_; }
  const RefCounts& counts() const { return counts_; }
  /// Where the bytes go until close() publishes them.
  const std::string& temp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* f_ = nullptr;
  bool busy_only_;
  u64 written_ = 0;
  RefCounts counts_;
};

}  // namespace rapwam
