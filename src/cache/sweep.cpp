#include "cache/sweep.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "server/faults.h"
#include "timing/replay_job.h"

namespace rapwam {

namespace {

/// What a sweep's caller and its helper tasks share. It lives in a
/// shared_ptr, so a helper that starts after the caller has returned
/// still has a mutex and a `closed` flag to look at.
struct SweepState {
  std::vector<SweepPoint> points;
  const CancelToken* cancel = nullptr;
  FaultInjector* faults = nullptr;
  std::vector<TrafficStats> stats;   ///< one slot per point
  std::atomic<std::size_t> next{0};  ///< the next point to claim
  std::mutex mu;                     ///< guards the members below
  std::condition_variable idle;
  std::exception_ptr error;          ///< the first point's error
  unsigned active = 0;               ///< helpers that passed the closed check
  bool closed = false;               ///< the caller has run out of points
};

/// Claims the next point and runs it; false when none was left. A
/// failed point keeps the first error and ends all claims, so no new
/// point starts; points already running finish.
bool run_next(SweepState& s) {
  const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= s.points.size()) return false;
  try {
    const SweepPoint& p = s.points[i];
    RW_CHECK(p.chunks, "sweep point has no trace");
    if (s.faults) s.faults->on_chunk(i);
    // The token is checked once per chunk, never per reference.
    ReplayJob job(*p.chunks, p.cfg, p.num_pes);
    job.run({.cancel = s.cancel});
    s.stats[i] = job.traffic();
  } catch (...) {
    std::scoped_lock lk(s.mu);
    if (!s.error) s.error = std::current_exception();
    s.next.store(s.points.size(), std::memory_order_relaxed);
  }
  return true;
}

void help(const std::shared_ptr<SweepState>& s, ThreadPool& pool);

/// Queues one helper task. A failed submit costs parallelism, never a
/// point: the caller runs every point no helper claims.
void offer(const std::shared_ptr<SweepState>& s, ThreadPool& pool) noexcept {
  try {
    pool.submit([s, &pool] { help(s, pool); });
  } catch (...) {
  }
}

/// A helper runs one point per pool task and re-enqueues itself while
/// points remain, so a request queued behind it waits for one point,
/// not for the rest of the sweep. Once the caller has closed the sweep
/// a helper returns at once.
void help(const std::shared_ptr<SweepState>& s, ThreadPool& pool) {
  {
    std::scoped_lock lk(s->mu);
    if (s->closed) return;
    ++s->active;
  }
  if (run_next(*s) && s->next.load(std::memory_order_relaxed) < s->points.size())
    offer(s, pool);
  std::scoped_lock lk(s->mu);
  if (--s->active == 0) s->idle.notify_all();
}

}  // namespace

std::vector<SweepResult> run_sweep(ThreadPool& pool,
                                   const std::vector<SweepPoint>& points,
                                   const CancelToken* cancel, FaultInjector* faults) {
  auto s = std::make_shared<SweepState>();
  s->points = points;
  s->cancel = cancel;
  s->faults = faults;
  s->stats.resize(points.size());
  // The caller is one of the sweep's threads, so a caller that is a
  // worker of `pool` never waits for its own thread.
  const std::size_t helpers =
      std::min<std::size_t>(pool.size() - 1, points.empty() ? 0 : points.size() - 1);
  for (std::size_t k = 0; k < helpers; ++k) offer(s, pool);
  while (run_next(*s)) {
  }
  {
    // Points read the caller's traces, token and injector: wait for
    // the helpers that are running one before returning past them.
    std::unique_lock lk(s->mu);
    s->closed = true;
    s->idle.wait(lk, [&] { return s->active == 0; });
  }
  if (s->error) std::rethrow_exception(s->error);
  std::vector<SweepResult> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    out.push_back(SweepResult{points[i], s->stats[i]});
  return out;
}

TrafficStats replay_traffic(const CacheConfig& cfg, unsigned num_pes,
                            const ChunkedTrace& trace) {
  ReplayJob job(trace, cfg, num_pes);
  job.run();
  return job.traffic();
}

}  // namespace rapwam
