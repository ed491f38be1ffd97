// Parallel parameter sweeps over cache configurations: replays one or
// more traces through many (protocol × size × policy) points using a
// host thread pool. This is the harness behind Figure 4.
//
// Generate-once fan-out (docs/DESIGN.md §8): each trace lives in shared
// immutable chunk storage (ChunkedTrace) and every point replays it
// independently on the pool, as one ReplayJob.
#pragma once

#include <vector>

#include "cache/hierarchy.h"
#include "support/cancel.h"
#include "support/thread_pool.h"

namespace rapwam {

struct SweepPoint {
  /// cfg.l2 adds the hierarchy dimension (L2 size / ways / inclusion).
  CacheConfig cfg;
  unsigned num_pes = 1;
  const ChunkedTrace* chunks = nullptr;  ///< the trace to replay (required)
  int label = 0;                         ///< caller-defined id
};

struct SweepResult {
  SweepPoint point;
  TrafficStats stats;
};

/// Runs every point (each an independent cache simulation) on `pool`.
/// Results are returned in input order. `cancel` (optional) is checked
/// at chunk granularity inside every point's replay loop; once it
/// fires, remaining points stop early and run_sweep rethrows the
/// CancelledError — the server's per-request deadline path
/// (docs/DESIGN.md §10). A point's error is rethrown only after every
/// submitted point has finished, so none outlives the caller's traces
/// or token.
std::vector<SweepResult> run_sweep(ThreadPool& pool,
                                   const std::vector<SweepPoint>& points,
                                   const CancelToken* cancel = nullptr);

/// One-point convenience used by the reports and benches: replays
/// `trace` through a fresh simulator and returns its traffic counters.
TrafficStats replay_traffic(const CacheConfig& cfg, unsigned num_pes,
                            const ChunkedTrace& trace);

}  // namespace rapwam
