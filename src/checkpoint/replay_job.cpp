#include "checkpoint/replay_job.h"

#include "server/faults.h"

namespace rapwam {

ReplayJob::ReplayJob(const ChunkedTrace& trace, const CacheConfig& cfg,
                     unsigned num_pes, const TimingParams* timing)
    : trace_(trace), cfg_(cfg), num_pes_(num_pes) {
  if (timing) {
    tp_ = *timing;
    timed_ = std::make_unique<TimedReplay>(cfg, num_pes, *timing);
  } else {
    sim_ = std::make_unique<MultiCacheSim>(cfg, num_pes);
  }
}

void ReplayJob::run(const ReplayHooks& hooks) {
  while (next_ < trace_.num_chunks()) {
    if (hooks.faults) hooks.faults->on_chunk(next_);
    if (hooks.cancel) hooks.cancel->checkpoint();
    const std::vector<u64>& c = trace_.chunk(next_);
    if (timed_) timed_->replay(c.data(), c.size());
    else sim_->replay(c.data(), c.size());
    ++next_;
    if (hooks.after_chunk) hooks.after_chunk();
  }
}

void ReplayJob::resume(RestoredReplay r) {
  if (r.meta.timed != tp_.has_value() || r.meta.config_hash != config_hash())
    fail("checkpoint: frame was cut from a different run");
  if (r.meta.chunk_index > trace_.num_chunks())
    fail("checkpoint: chunk index " + std::to_string(r.meta.chunk_index) +
         " is past the trace's " + std::to_string(trace_.num_chunks()) +
         " chunks");
  sim_ = std::move(r.sim);
  timed_ = std::move(r.timed);
  next_ = r.meta.chunk_index;
}

std::string ReplayJob::snapshot() const {
  CheckpointMeta meta;
  meta.config_hash = config_hash();
  meta.chunk_index = next_;
  meta.refs_done = traffic().refs;
  meta.timed = tp_.has_value();
  return timed_ ? checkpoint_serialize(meta, *timed_)
                : checkpoint_serialize(meta, *sim_);
}

u64 ReplayJob::config_hash() const {
  bool wide = resolve_wide(DirRep::Auto, num_pes_);
  u64 fp = trace_fingerprint(trace_);
  return tp_ ? timed_config_hash(cfg_, num_pes_, wide, *tp_, fp)
             : replay_config_hash(cfg_, num_pes_, wide, fp);
}

const TrafficStats& ReplayJob::traffic() const {
  return timed_ ? timed_->traffic() : sim_->stats();
}

TimingStats ReplayJob::timing() const {
  RW_CHECK(timed_, "timing stats of an untimed replay job");
  return timed_->timing();
}

}  // namespace rapwam
