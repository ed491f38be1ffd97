// The one chunked replay loop (docs/DESIGN.md §12): every replay that
// carries hooks — the CLI's replay/time with checkpoints, the server's
// replay/time/sweep requests, run_sweep's points — is a ReplayJob.
//
// A job replays one ChunkedTrace through a HierCacheSim, or through a
// TimedReplay when given TimingParams, and remembers how many chunks it
// has replayed. At every chunk boundary i it runs, in this order:
//
//   hooks.faults->on_chunk(i)   injected stall / throw (server/faults.h)
//   hooks.cancel->checkpoint()  deadline or cancel (support/cancel.h)
//   replay of chunk i
//   hooks.after_chunk()         e.g. the CLI's every-N checkpoint writer
//
// The fault hook runs first so a deadline notices an injected stall even
// on a single-chunk trace. A hook that throws leaves the job at a chunk
// boundary — chunks [0, next_chunk()) fully replayed, nothing of the
// next one — so snapshot() cuts a frame a fresh job can resume() from
// with bit-identical final stats.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "checkpoint/checkpoint.h"
#include "support/cancel.h"
#include "trace/chunks.h"

namespace rapwam {

class FaultInjector;

/// Per-run hooks; every member is optional.
struct ReplayHooks {
  const CancelToken* cancel = nullptr;
  FaultInjector* faults = nullptr;
  /// Called after each chunk's replay; next_chunk() already counts it.
  std::function<void()> after_chunk;
};

class ReplayJob {
 public:
  /// `timing` selects a timed replay (copied); null replays untimed.
  /// The simulator uses the default directory representation
  /// (DirRep::Auto), as the CLI and the server always have.
  ReplayJob(const ChunkedTrace& trace, const CacheConfig& cfg,
            unsigned num_pes, const TimingParams* timing = nullptr);

  /// Replays chunks [next_chunk(), num_chunks()). Exceptions from the
  /// hooks propagate with the job still at a chunk boundary.
  void run(const ReplayHooks& hooks = {});

  /// Chunks fully replayed so far, of num_chunks().
  std::size_t next_chunk() const { return next_; }
  std::size_t num_chunks() const { return trace_.num_chunks(); }

  /// Adopts a restored simulator and continues from its chunk index.
  /// Throws Error if the frame was cut from a different run (config
  /// hash or timing mode) or points past the end of the trace.
  void resume(RestoredReplay r);

  /// A complete checkpoint frame cut at next_chunk().
  std::string snapshot() const;

  /// The run's identity: replay_config_hash / timed_config_hash over
  /// the configuration and the trace fingerprint. The fingerprint is a
  /// full pass over the trace, so it is computed on first use only.
  u64 config_hash() const;

  const CacheConfig& cfg() const { return cfg_; }
  unsigned num_pes() const { return num_pes_; }
  /// The timing parameters of a timed job; null for an untimed one.
  const TimingParams* timing_params() const { return tp_ ? &*tp_ : nullptr; }

  const TrafficStats& traffic() const;
  /// Timing results; the job must be timed.
  TimingStats timing() const;

 private:
  const ChunkedTrace& trace_;
  CacheConfig cfg_;
  unsigned num_pes_;
  std::optional<TimingParams> tp_;
  // Exactly one is set, matching tp_ (the RestoredReplay layout).
  std::unique_ptr<HierCacheSim> sim_;
  std::unique_ptr<TimedReplay> timed_;
  std::size_t next_ = 0;
  mutable std::optional<u64> hash_;
};

}  // namespace rapwam
