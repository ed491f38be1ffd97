#include "cache/sweep.h"

#include "checkpoint/journal.h"
#include "checkpoint/replay_job.h"

namespace rapwam {

std::vector<SweepResult> run_sweep(ThreadPool& pool,
                                   const std::vector<SweepPoint>& points,
                                   const CancelToken* cancel,
                                   SweepJournal* journal) {
  // Journaled points come back exactly as recorded — no re-simulation,
  // so a resumed sweep's rows are bit-identical to the first run's.
  std::vector<std::future<TrafficStats>> futs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (journal && journal->is_done(i)) continue;
    const SweepPoint& p = points[i];
    futs[i] = pool.submit([p, cancel]() {
      RW_CHECK(p.chunks, "sweep point has no trace");
      // HierCacheSim with the L2 disabled delegates to the flat fast
      // path, so every sweep point goes through the hierarchy-aware
      // simulator; the token is checked once per chunk, never per
      // reference.
      ReplayJob job(*p.chunks, p.cfg, p.num_pes);
      job.run({.cancel = cancel});
      return job.traffic();
    });
  }
  std::vector<SweepResult> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (journal && journal->is_done(i)) {
      out.push_back(SweepResult{points[i], journal->result(i)});
      continue;
    }
    try {
      out.push_back(SweepResult{points[i], futs[i].get()});
    } catch (...) {
      // The points still queued or running read the caller's traces
      // and token: let them all finish before unwinding past them.
      for (std::future<TrafficStats>& f : futs)
        if (f.valid()) f.wait();
      throw;
    }
    if (journal) journal->record(i, out.back().stats);
  }
  return out;
}

TrafficStats replay_traffic(const CacheConfig& cfg, unsigned num_pes,
                            const ChunkedTrace& trace) {
  ReplayJob job(trace, cfg, num_pes);
  job.run();
  return job.traffic();
}

}  // namespace rapwam
