// ReplayJob (checkpoint/replay_job.h), the one chunked replay loop
// behind the CLI, the server and run_sweep. Pinned here:
//
//   * the per-chunk hook order — fault hook, cancel check, replay,
//     after-chunk callback — observed through which exception wins
//     and how much of the trace the simulator saw;
//   * cancel at every chunk boundary, snapshot(), checkpoint_parse,
//     resume() in a fresh job, finish: stats bit-identical to the
//     uninterrupted run, untimed and timed;
//   * config_hash() is exactly the run-identity hash a checkpoint
//     frame carries (replay_config_hash / timed_config_hash).
#include <gtest/gtest.h>

#include <vector>

#include "checkpoint/replay_job.h"
#include "server/faults.h"
#include "test_rand.h"

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
  cfg.l2.size_words = 1024;  // the snapshot must carry the L2 too
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

TEST(ReplayJob, CallbackRunsAfterEachChunkIsReplayed) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob job(*t, test_cfg(), kPes);
  std::vector<std::pair<std::size_t, u64>> seen;  // (next_chunk, refs)
  ReplayHooks hooks;
  hooks.after_chunk = [&] { seen.emplace_back(job.next_chunk(), job.traffic().refs); };
  job.run(hooks);
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, refs_before(*t, i + 1));
  }
  EXPECT_EQ(job.next_chunk(), 3u);
  HierCacheSim direct(test_cfg(), kPes);
  direct.replay(*t);
  EXPECT_EQ(job.traffic(), direct.stats());
}

TEST(ReplayJob, FaultHookRunsBeforeTheCancelCheck) {
  // Chunk 0 replays, then the callback cancels. At chunk 1 both the
  // injected throw and the cancellation are due: the fault hook runs
  // first, so the plain Error wins, and nothing of chunk 1 replayed.
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob job(*t, test_cfg(), kPes);
  FaultPlan plan;
  plan.throw_chunk_n = 2;  // 1-based: chunk index 1
  FaultInjector faults(plan);
  CancelToken cancel;
  ReplayHooks hooks{&cancel, &faults, [&] { cancel.cancel(); }};
  try {
    job.run(hooks);
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
  CancelToken cancel;
  int callbacks = 0;
  ReplayHooks hooks{&cancel, nullptr, [&] {
                      if (++callbacks == 2) cancel.cancel();
                    }};
  EXPECT_THROW(job.run(hooks), CancelledError);
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(job.next_chunk(), 2u);
  EXPECT_EQ(job.traffic().refs, refs_before(*t, 2));
  // Running on without the token finishes the remaining chunk only.
  job.run();
  EXPECT_EQ(job.next_chunk(), 3u);
  EXPECT_EQ(job.traffic().refs, t->size());
}

/// Cancels `job` at the boundary before chunk `k` (k == num_chunks:
/// after the last one, so the run completes), then resumes its
/// snapshot in a fresh job and finishes it there.
ReplayJob cancel_snapshot_resume(const ChunkedTrace& t, std::size_t k,
                                 const TimingParams* tp) {
  ReplayJob first(t, test_cfg(), kPes, tp);
  CancelToken cancel;
  if (k == 0) cancel.cancel();
  ReplayHooks hooks{&cancel, nullptr, [&] {
                      if (first.next_chunk() == k) cancel.cancel();
                    }};
  if (k < t.num_chunks()) EXPECT_THROW(first.run(hooks), CancelledError);
  else first.run(hooks);
  EXPECT_EQ(first.next_chunk(), k);
  std::string frame = first.snapshot();

  ReplayJob second(t, test_cfg(), kPes, tp);
  second.resume(checkpoint_parse(frame, second.cfg(), kPes, DirRep::Auto,
                                 second.timing_params(), second.config_hash()));
  EXPECT_EQ(second.next_chunk(), k);
  second.run();
  return second;
}

TEST(ReplayJob, ResumeAtEveryBoundaryMatchesUninterruptedUntimed) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob whole(*t, test_cfg(), kPes);
  whole.run();
  for (std::size_t k = 0; k <= t->num_chunks(); ++k) {
    ReplayJob resumed = cancel_snapshot_resume(*t, k, nullptr);
    EXPECT_EQ(resumed.traffic(), whole.traffic()) << "boundary " << k;
  }
}

TEST(ReplayJob, ResumeAtEveryBoundaryMatchesUninterruptedTimed) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob whole(*t, test_cfg(), kPes, &kTiming);
  whole.run();
  for (std::size_t k = 0; k <= t->num_chunks(); ++k) {
    SCOPED_TRACE("boundary " + std::to_string(k));
    ReplayJob resumed = cancel_snapshot_resume(*t, k, &kTiming);
    EXPECT_EQ(resumed.traffic(), whole.traffic());
    expect_timing_eq(resumed.timing(), whole.timing());
  }
}

TEST(ReplayJob, ConfigHashIsTheRunIdentityHash) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  const CacheConfig cfg = test_cfg();
  const u64 fp = trace_fingerprint(*t);
  ReplayJob untimed(*t, cfg, kPes);
  EXPECT_EQ(untimed.config_hash(),
            replay_config_hash(cfg, kPes, resolve_wide(DirRep::Auto, kPes), fp));
  ReplayJob timed(*t, cfg, kPes, &kTiming);
  EXPECT_EQ(timed.config_hash(),
            timed_config_hash(cfg, kPes, resolve_wide(DirRep::Auto, kPes),
                              kTiming, fp));
  // Above 64 PEs the directory resolves to the wide representation,
  // and the hash follows it.
  ReplayJob wide(*t, cfg, 128);
  EXPECT_EQ(wide.config_hash(), replay_config_hash(cfg, 128, true, fp));
  EXPECT_NE(wide.config_hash(), untimed.config_hash());
}

TEST(ReplayJob, ResumeRejectsAFrameFromAnotherRun) {
  std::shared_ptr<const ChunkedTrace> t = three_chunk_trace();
  ReplayJob a(*t, test_cfg(), kPes);
  a.run();
  std::string frame = a.snapshot();

  CacheConfig other = test_cfg();
  other.size_words = 512;
  ReplayJob b(*t, other, kPes);
  // The frame parses under its own hash, but it is not b's run.
  RestoredReplay r =
      checkpoint_parse(frame, other, kPes, DirRep::Auto, nullptr, a.config_hash());
  EXPECT_THROW(b.resume(std::move(r)), Error);
  EXPECT_EQ(b.next_chunk(), 0u);
}

}  // namespace
}  // namespace rapwam
