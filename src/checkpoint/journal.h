// Append-only sweep journal: a write-ahead log of completed sweep
// points, so an interrupted run_sweep resumes by skipping points whose
// results are already on disk (docs/DESIGN.md §12).
//
// File layout (all little-endian):
//
//   header:  u32 magic "RWSJ"   u32 version   u64 config_hash
//   records: u32 magic   u64 point_index   19 × u64 TrafficStats
//            u64 fnv1a(index + stats)            — fixed 172 bytes
//
// Each record is appended and fsynced when its point completes, so a
// crash loses at most the record being written. On open, an existing
// journal is validated front to back: a header config-hash mismatch
// is a hard Error (the journal belongs to a different sweep — results
// must never cross experiments); a torn or checksum-damaged tail is
// truncated away and counted, never replayed. Completed points carry
// their recorded TrafficStats back verbatim — a resumed sweep's
// output rows are bit-identical to the uninterrupted run's.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/multisim.h"

namespace rapwam {

struct SweepPoint;

/// "RWSJ" in little-endian byte order.
inline constexpr u32 kJournalMagic =
    u32('R') | (u32('W') << 8) | (u32('S') << 16) | (u32('J') << 24);
inline constexpr u32 kJournalVersion = 1;

/// Identity of a sweep: every point's configuration, PE count and
/// label, plus the trace fingerprint(s), in point order. Stored in the
/// journal header and verified on reopen.
u64 sweep_config_hash(const std::vector<SweepPoint>& points, u64 trace_fp);

class SweepJournal {
 public:
  /// Opens (validating any existing records) or creates the journal.
  /// Throws Error on a config-hash or version mismatch, or on I/O
  /// failure; a torn/corrupt tail is truncated and counted instead.
  SweepJournal(const std::string& path, u64 config_hash);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Appends and fsyncs one completed point. Thread-safe (sweep
  /// consumers complete concurrently).
  void record(u64 point_index, const TrafficStats& stats);

  bool is_done(u64 point_index) const;
  /// Recorded stats for a done point (RW_CHECK if not done).
  const TrafficStats& result(u64 point_index) const;
  std::size_t done_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_.size();
  }
  /// Damaged trailing records discarded when the journal was opened.
  u64 torn_records_dropped() const { return torn_dropped_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  std::map<u64, TrafficStats> done_;
  u64 torn_dropped_ = 0;
  mutable std::mutex mu_;
};

}  // namespace rapwam
