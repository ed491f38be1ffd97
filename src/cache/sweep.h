// Parallel parameter sweeps over cache configurations: replays one or
// more traces through many (protocol × size × policy) points using a
// host thread pool. This is the harness behind Figure 4.
//
// Generate-once fan-out (docs/DESIGN.md §8): each trace lives in shared
// immutable chunk storage (ChunkedTrace) and every point replays it
// independently, as one ReplayJob, on the calling thread or on an idle
// worker of the pool.
#pragma once

#include <vector>

#include "cache/hierarchy.h"
#include "support/cancel.h"
#include "support/thread_pool.h"

namespace rapwam {

class FaultInjector;

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

/// Runs every point (each an independent cache simulation) and returns
/// the results in input order. The calling thread runs points itself
/// and offers the rest to at most pool.size() - 1 helper tasks, each of
/// which runs one point and re-enqueues itself while points remain. So
/// a sweep uses at most pool.size() threads, and run_sweep is safe to
/// call from a worker of `pool` (the server's sweep requests do): it
/// never waits on a task that has not started.
///
/// `cancel` (optional) is checked at chunk granularity inside every
/// point's replay loop. `faults` (optional) fires on_chunk(i) once per
/// point i, before its replay. After a point fails, no new point
/// starts; run_sweep waits for the points already running, then
/// rethrows the first error (a CancelledError included). A helper that
/// starts after run_sweep has returned touches none of the caller's
/// traces, its token or its injector.
std::vector<SweepResult> run_sweep(ThreadPool& pool,
                                   const std::vector<SweepPoint>& points,
                                   const CancelToken* cancel = nullptr,
                                   FaultInjector* faults = nullptr);

/// One-point convenience used by the reports and benches: replays
/// `trace` through a fresh simulator and returns its traffic counters.
TrafficStats replay_traffic(const CacheConfig& cfg, unsigned num_pes,
                            const ChunkedTrace& trace);

}  // namespace rapwam
