#include "cache/sweep.h"

#include "timing/replay_job.h"

namespace rapwam {

std::vector<SweepResult> run_sweep(ThreadPool& pool,
                                   const std::vector<SweepPoint>& points,
                                   const CancelToken* cancel) {
  std::vector<std::future<TrafficStats>> futs;
  futs.reserve(points.size());
  for (const SweepPoint& p : points) {
    futs.push_back(pool.submit([p, cancel]() {
      RW_CHECK(p.chunks, "sweep point has no trace");
      // The token is checked once per chunk, never per reference.
      ReplayJob job(*p.chunks, p.cfg, p.num_pes);
      job.run({.cancel = cancel});
      return job.traffic();
    }));
  }
  std::vector<SweepResult> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    try {
      out.push_back(SweepResult{points[i], futs[i].get()});
    } catch (...) {
      // The points still queued or running read the caller's traces
      // and token: let them all finish before unwinding past them.
      for (std::future<TrafficStats>& f : futs)
        if (f.valid()) f.wait();
      throw;
    }
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
