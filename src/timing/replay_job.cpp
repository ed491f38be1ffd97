#include "timing/replay_job.h"

#include "server/faults.h"

namespace rapwam {

ReplayJob::ReplayJob(const ChunkedTrace& trace, const CacheConfig& cfg,
                     unsigned num_pes, const TimingParams* timing)
    : trace_(trace) {
  if (timing) timed_ = std::make_unique<TimedReplay>(cfg, num_pes, *timing);
  else sim_ = std::make_unique<MultiCacheSim>(cfg, num_pes);
}

void ReplayJob::run(const ReplayHooks& hooks) {
  while (next_ < trace_.num_chunks()) {
    if (hooks.faults) hooks.faults->on_chunk(next_);
    if (hooks.cancel) hooks.cancel->checkpoint();
    const std::vector<u64>& c = trace_.chunk(next_);
    if (timed_) timed_->replay(c.data(), c.size());
    else sim_->replay(c.data(), c.size());
    ++next_;
  }
}

const TrafficStats& ReplayJob::traffic() const {
  return timed_ ? timed_->traffic() : sim_->stats();
}

TimingStats ReplayJob::timing() const {
  RW_CHECK(timed_, "timing stats of an untimed replay job");
  return timed_->timing();
}

}  // namespace rapwam
