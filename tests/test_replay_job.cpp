// ReplayJob (timing/replay_job.h), the one chunked replay loop behind
// the CLI, the server and run_sweep. Pinned here:
//
//   * the per-chunk hook order — fault hook, cancel check, replay —
//     observed through which exception wins and how much of the trace
//     the simulator saw;
//   * a job stopped at any chunk boundary runs on to stats
//     bit-identical to the uninterrupted run, untimed and timed.
#include <gtest/gtest.h>

#include "server/faults.h"
#include "test_rand.h"
#include "timing/replay_job.h"

namespace rapwam {
namespace {

constexpr unsigned kPes = 4;

/// Three chunks, the last one partial.
std::shared_ptr<const ChunkedTrace> three_chunk_trace() {
  std::shared_ptr<const ChunkedTrace> t =
      chunked(random_trace(0x10B5, kPes, 2 * kChunkRefs + 5000));
  EXPECT_EQ(t->num_chunks(), 3u);
  return t;
}

CacheConfig test_cfg() {
  CacheConfig cfg = paper_cache_config(Protocol::WriteInBroadcast, 256);
  cfg.l2.size_words = 1024;  // stopping must not lose the L2's state
  cfg.l2.ways = 4;
  return cfg;
}

const TimingParams kTiming{1, 1, 2, 4, 3};

/// References in chunks [0, n).
u64 refs_before(const ChunkedTrace& t, std::size_t n) {
  u64 refs = 0;
  for (std::size_t i = 0; i < n; ++i) refs += t.chunk(i).size();
  return refs;
}

void expect_timing_eq(const TimingStats& a, const TimingStats& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles);
  EXPECT_EQ(a.bus_transactions, b.bus_transactions);
  EXPECT_EQ(a.cache_fills, b.cache_fills);
  EXPECT_EQ(a.l2_fills, b.l2_fills);
  EXPECT_EQ(a.mem_fills, b.mem_fills);
  ASSERT_EQ(a.pe.size(), b.pe.size());
  for (std::size_t i = 0; i < a.pe.size(); ++i) {
    EXPECT_EQ(a.pe[i].refs, b.pe[i].refs) << "pe " << i;
    EXPECT_EQ(a.pe[i].busy_cycles, b.pe[i].busy_cycles) << "pe " << i;
    EXPECT_EQ(a.pe[i].stall_cycles, b.pe[i].stall_cycles) << "pe " << i;
    EXPECT_EQ(a.pe[i].clock, b.pe[i].clock) << "pe " << i;
  }
}

/// Stops `job` with an injected throw at the boundary before chunk
/// `k`, so chunks [0, k) are replayed and nothing of chunk k.
void stop_at(ReplayJob& job, std::size_t k) {
  FaultPlan plan;
  plan.throw_chunk_n = static_cast<u32>(k + 1);  // 1-based
  FaultInjector faults(plan);
  EXPECT_THROW(job.run({.faults = &faults}), Error);
  EXPECT_EQ(job.next_chunk(), k);
}

TEST(ReplayJob, FaultHookRunsBeforeTheCancelCheck) {
  // Stopped at chunk 1, the job runs on with the same fault due and a
  // token cancelled beforehand. The fault hook runs first, so the
  // plain Error wins, and nothing of chunk 1 replayed.
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob job(*t, test_cfg(), kPes);
  stop_at(job, 1);
  FaultPlan plan;
  plan.throw_chunk_n = 2;  // 1-based: chunk index 1
  FaultInjector faults(plan);
  CancelToken cancel;
  cancel.cancel();
  try {
    job.run({.cancel = &cancel, .faults = &faults});
    ADD_FAILURE() << "run completed";
  } catch (const CancelledError&) {
    ADD_FAILURE() << "cancel check ran before the fault hook";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected chunk fault at chunk 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(job.next_chunk(), 1u);
  EXPECT_EQ(job.traffic().refs, refs_before(*t, 1));
}

TEST(ReplayJob, CancelCheckRunsBeforeTheReplay) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob job(*t, test_cfg(), kPes);
  stop_at(job, 2);
  CancelToken cancel;
  cancel.cancel();
  EXPECT_THROW(job.run({.cancel = &cancel}), CancelledError);
  EXPECT_EQ(job.next_chunk(), 2u);
  EXPECT_EQ(job.traffic().refs, refs_before(*t, 2));
  // Running on without the token finishes the remaining chunk only.
  job.run();
  EXPECT_EQ(job.next_chunk(), 3u);
  EXPECT_EQ(job.traffic().refs, t->size());
}

TEST(ReplayJob, StoppedAtEveryBoundaryRunsOnToTheUninterruptedStats) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  for (const TimingParams* tp : {static_cast<const TimingParams*>(nullptr), &kTiming}) {
    ReplayJob whole(*t, test_cfg(), kPes, tp);
    whole.run();
    for (std::size_t k = 0; k < t->num_chunks(); ++k) {
      SCOPED_TRACE(std::string(tp ? "timed" : "untimed") + ", boundary " +
                   std::to_string(k));
      ReplayJob job(*t, test_cfg(), kPes, tp);
      stop_at(job, k);
      job.run();
      EXPECT_EQ(job.next_chunk(), t->num_chunks());
      EXPECT_EQ(job.traffic(), whole.traffic());
      if (tp) expect_timing_eq(job.timing(), whole.timing());
    }
  }
}

}  // namespace
}  // namespace rapwam
