// The one chunked replay loop: the CLI's replay/time, the server's
// replay/time/sweep requests and run_sweep's points are each a
// ReplayJob.
//
// A job replays one ChunkedTrace through a MultiCacheSim, or through a
// TimedReplay when given TimingParams, and remembers how many chunks it
// has replayed. At every chunk boundary i it runs, in this order:
//
//   hooks.faults->on_chunk(i)   injected stall / throw (server/faults.h)
//   hooks.cancel->checkpoint()  deadline or cancel (support/cancel.h)
//   replay of chunk i
//
// The fault hook runs first so a deadline notices an injected stall even
// on a single-chunk trace. A hook that throws leaves the job at a chunk
// boundary — chunks [0, next_chunk()) fully replayed, nothing of the
// next one — so run() may be called again to finish the trace.
#pragma once

#include <memory>

#include "support/cancel.h"
#include "timing/timed_replay.h"
#include "trace/chunks.h"

namespace rapwam {

class FaultInjector;

/// Per-run hooks; every member is optional.
struct ReplayHooks {
  const CancelToken* cancel = nullptr;
  FaultInjector* faults = nullptr;
};

class ReplayJob {
 public:
  /// `timing` selects a timed replay (copied); null replays untimed.
  /// The simulator uses the default directory representation
  /// (DirRep::Auto), as the CLI and the server always have.
  ReplayJob(const ChunkedTrace& trace, const CacheConfig& cfg,
            unsigned num_pes, const TimingParams* timing = nullptr);

  /// Replays the chunks from next_chunk() to the end of the trace.
  /// Exceptions from the hooks propagate with the job still at a chunk
  /// boundary.
  void run(const ReplayHooks& hooks = {});

  /// Chunks fully replayed so far.
  std::size_t next_chunk() const { return next_; }

  const TrafficStats& traffic() const;
  /// Timing results; the job must be timed.
  TimingStats timing() const;

 private:
  const ChunkedTrace& trace_;
  // Exactly one is set: timed_ when the job was given TimingParams.
  std::unique_ptr<MultiCacheSim> sim_;
  std::unique_ptr<TimedReplay> timed_;
  std::size_t next_ = 0;
};

}  // namespace rapwam
