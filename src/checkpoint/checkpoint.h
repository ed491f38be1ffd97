// Crash-safe checkpoint/resume for trace replays (docs/DESIGN.md §12).
//
// A checkpoint is a single self-validating binary frame capturing the
// complete observable simulator state at a chunk boundary: the
// coherence engine (per-PE L1 contents with LRU order, the sharing
// directory in either representation, the shared L2) and — for timed
// replays — the full timing state (per-PE clocks, posted-write
// buffers, the bus timeline). Restoring the frame into a freshly
// constructed simulator and replaying the remaining chunks produces
// bit-identical TrafficStats/TimingStats to the uninterrupted run;
// the randomized interrupt-point differential suite and the
// SIGKILL-and-resume harness test pin this across every protocol ×
// directory representation × hierarchy × timing combination.
//
// Frame layout (all little-endian):
//
//   u32 magic "RWCP"   u32 version   u64 payload_len   u64 fnv1a(payload)
//   payload:
//     u64 config_hash   u8 mode (0 untimed / 1 timed)
//     u64 chunk_index (chunks fully replayed)   u64 refs_done
//     <simulator state>  (MultiCacheSim or TimedReplay save_state
//                         stream)
//
// The parser validates outside-in — length, magic, version, exact
// payload length, checksum, then config hash and mode — and only then
// builds a fresh simulator to restore into, so a damaged frame can
// never mutate caller state. config_hash binds the frame to the exact
// run: cache geometry, protocol, PE count, directory representation,
// timing parameters and a fingerprint of the trace itself, so a
// checkpoint can never silently resume a different experiment.
//
// Publication is durable and atomic (support/atomic_file.h): write
// `<path>.tmp`, fsync, rotate the previous checkpoint to
// `<path>.prev`, rename, fsync the directory. The rotation means a
// crash *during* publication (a torn temporary) still leaves the
// previous good snapshot recoverable; checkpoint_resume tries `path`
// then `path.prev` and reports what it rejected.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "support/bytes.h"
#include "timing/timed_replay.h"

namespace rapwam {

/// "RWCP" in little-endian byte order.
inline constexpr u32 kCheckpointMagic =
    u32('R') | (u32('W') << 8) | (u32('C') << 16) | (u32('P') << 24);
/// Bump on ANY layout change — frame fields, save_state streams, the
/// TrafficStats field set (pinned by the static_assert in multisim.cpp)
/// — or change of the config hash's definition, so stale frames are
/// rejected by version, not misparsed or refused as another run.
/// Version 3: the trace fingerprint became a four-lane word hash.
inline constexpr u32 kCheckpointVersion = 3;

/// Everything about a frame except the simulator state itself.
struct CheckpointMeta {
  u64 config_hash = 0;  ///< run identity: config + PEs + rep + trace
  u64 chunk_index = 0;  ///< chunks fully replayed when the frame was cut
  u64 refs_done = 0;    ///< references replayed (redundant cross-check)
  bool timed = false;   ///< TimedReplay frame vs. bare MultiCacheSim
};

/// Identity of the trace a checkpoint was cut from: counters, shape
/// and the full packed contents (ChunkedTrace::fingerprint, memoized
/// on the trace, so a shared trace is hashed once). Folded into the
/// config hash, so a frame can never resume against different input
/// data.
u64 trace_fingerprint(const ChunkedTrace& t);

/// Run-identity hashes. `wide` is the *resolved* directory
/// representation (DirRep::Wide, or Auto with > 64 PEs).
u64 replay_config_hash(const CacheConfig& cfg, unsigned num_pes, bool wide,
                       u64 trace_fp);
u64 timed_config_hash(const CacheConfig& cfg, unsigned num_pes, bool wide,
                      const TimingParams& tp, u64 trace_fp);
/// Resolves DirRep the way the simulator constructor does.
inline bool resolve_wide(DirRep rep, unsigned num_pes) {
  return rep == DirRep::Wide || (rep == DirRep::Auto && num_pes > 64);
}

/// Serializes a complete frame (header + payload). meta.timed must
/// match the overload.
std::string checkpoint_serialize(const CheckpointMeta& meta,
                                 const MultiCacheSim& sim);
std::string checkpoint_serialize(const CheckpointMeta& meta,
                                 const TimedReplay& replay);

/// A successfully parsed-and-restored frame: exactly one of the two
/// simulators is set, matching meta.timed.
struct RestoredReplay {
  CheckpointMeta meta;
  std::unique_ptr<MultiCacheSim> sim;
  std::unique_ptr<TimedReplay> timed;
};

/// Validates `frame` outside-in and restores it into a freshly
/// constructed simulator of the given configuration. Pass `tp` to
/// expect a timed frame, null for an untimed one; `expected_hash` is
/// the caller's own config hash for this run. Throws Error on any
/// defect — truncation, bad magic/version/checksum, hash or mode
/// mismatch, malformed state — without side effects on caller state.
RestoredReplay checkpoint_parse(const std::string& frame,
                                const CacheConfig& cfg, unsigned num_pes,
                                DirRep rep, const TimingParams* tp,
                                u64 expected_hash);

/// Rotating durable checkpoint writer for one run: publish() writes
/// the frame to `<path>.tmp`, fsyncs it, rotates any existing `path`
/// to `<path>.prev`, renames the temporary into place and fsyncs the
/// directory.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path);

  /// Publishes one frame; returns the 0-based index of this write.
  u64 publish(const std::string& frame);

  u64 written() const { return written_; }
  const std::string& path() const { return path_; }
  const std::string& prev_path() const { return prev_path_; }

 private:
  std::string path_;
  std::string prev_path_;
  std::string tmp_path_;
  u64 written_ = 0;
};

/// Outcome of a resume attempt that found at least one candidate file.
struct ResumeOutcome {
  RestoredReplay restored;
  std::string source;           ///< which file resumed: path or path.prev
  u32 rejected = 0;             ///< candidates discarded as damaged
  std::vector<std::string> errors;  ///< why each rejected one failed
};

/// Tries `path`, then `path.prev`. Returns nullopt when neither file
/// exists (a clean first run). Throws Error listing every rejection
/// when candidates exist but none is valid — the caller decides
/// whether that means a clean restart or a hard failure.
std::optional<ResumeOutcome> checkpoint_resume(const std::string& path,
                                               const CacheConfig& cfg,
                                               unsigned num_pes, DirRep rep,
                                               const TimingParams* tp,
                                               u64 expected_hash);

}  // namespace rapwam
