// The checkpoint/resume headline invariant (docs/DESIGN.md §12):
// interrupting a replay at ANY chunk boundary, serializing the
// simulator, restoring the frame into a freshly constructed simulator
// and replaying the remaining chunks yields bit-identical
// TrafficStats / TimingStats (and final cache contents) to the
// uninterrupted run — across every protocol × directory
// representation × hierarchy × timing combination.
//
// Three layers of evidence, in the differential-suite mould of
// test_cache_diff / test_hierarchy_diff:
//   * the in-memory matrix: every boundary of a multi-chunk random
//     trace, every combination, serialize -> parse -> finish;
//   * the file round trip: the same equivalence through
//     CheckpointWriter's durable publication and checkpoint_resume;
//   * the CheckpointKill suite: a real forked process SIGKILLed
//     mid-replay, recovered from whatever its last published snapshot
//     was — the harness analog of a power cut. (Kept out of the TSan
//     CI shard by suite name: fork() under TSan is unsupported.)
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "test_rand.h"
#include "timing/timed_replay.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

namespace fs = std::filesystem;

const Protocol kAllProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

std::shared_ptr<const ChunkedTrace> chunked(u64 seed, unsigned pes,
                                            std::size_t n) {
  std::vector<u64> t = random_trace(seed, pes, n);
  ChunkingSink sink(/*busy_only=*/true);
  sink.on_chunk(t.data(), t.size());
  return sink.take();
}

CacheConfig make_cfg(Protocol p, bool hier) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = 256;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  if (hier) {
    cfg.l2.size_words = 2048;
    cfg.l2.ways = 8;
    cfg.l2.inclusion = L2Config::Inclusion::Inclusive;
    cfg.l2.hit_extra_cycles = 2;
  }
  return cfg;
}

/// Non-trivial timing: contended bus, interleaving, posted writes and
/// a distinct memory latency, so every piece of timing state matters.
TimingParams make_tp() {
  TimingParams tp;
  tp.cycles_per_ref = 1;
  tp.bus_service_cycles = 2;
  tp.interleave = 2;
  tp.write_buffer_depth = 2;
  tp.mem_extra_cycles = 3;
  return tp;
}

void expect_same_lines(const MultiCacheSim& a, const MultiCacheSim& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_caches(), b.num_caches()) << what;
  for (unsigned pe = 0; pe < a.num_caches(); ++pe) {
    std::vector<Line> la = a.cache(pe).lines(), lb = b.cache(pe).lines();
    ASSERT_EQ(la.size(), lb.size()) << what << " pe=" << pe;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].tag, lb[i].tag) << what << " pe=" << pe << " i=" << i;
      EXPECT_EQ(la[i].state, lb[i].state) << what << " pe=" << pe << " i=" << i;
    }
  }
}

void expect_same_timing(const TimingStats& a, const TimingStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles) << what;
  EXPECT_EQ(a.bus_transactions, b.bus_transactions) << what;
  EXPECT_EQ(a.cache_fills, b.cache_fills) << what;
  EXPECT_EQ(a.l2_fills, b.l2_fills) << what;
  EXPECT_EQ(a.mem_fills, b.mem_fills) << what;
  ASSERT_EQ(a.pe.size(), b.pe.size()) << what;
  for (std::size_t i = 0; i < a.pe.size(); ++i) {
    EXPECT_EQ(a.pe[i].refs, b.pe[i].refs) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].busy_cycles, b.pe[i].busy_cycles) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].stall_cycles, b.pe[i].stall_cycles) << what << " pe=" << i;
    EXPECT_EQ(a.pe[i].clock, b.pe[i].clock) << what << " pe=" << i;
  }
}

void replay_chunks(MultiCacheSim& sim, const ChunkedTrace& t, std::size_t from,
                   std::size_t to) {
  for (std::size_t i = from; i < to; ++i)
    sim.replay(t.chunk(i).data(), t.chunk(i).size());
}

void replay_chunks(TimedReplay& sim, const ChunkedTrace& t, std::size_t from,
                   std::size_t to) {
  for (std::size_t i = from; i < to; ++i)
    sim.replay(t.chunk(i).data(), t.chunk(i).size());
}

/// The untimed half of the matrix: interrupt at `boundary`, serialize,
/// parse into a fresh simulator, finish, compare everything.
void check_untimed(const ChunkedTrace& t, const CacheConfig& cfg, unsigned pes,
                   DirRep rep, std::size_t boundary, const std::string& what) {
  const u64 hash = replay_config_hash(cfg, pes, resolve_wide(rep, pes),
                                      trace_fingerprint(t));
  MultiCacheSim full(cfg, pes, rep);
  replay_chunks(full, t, 0, t.num_chunks());

  MultiCacheSim head(cfg, pes, rep);
  replay_chunks(head, t, 0, boundary);
  CheckpointMeta meta;
  meta.config_hash = hash;
  meta.chunk_index = boundary;
  meta.refs_done = head.stats().refs;
  meta.timed = false;
  std::string frame = checkpoint_serialize(meta, head);

  RestoredReplay r;
  try {
    r = checkpoint_parse(frame, cfg, pes, rep, nullptr, hash);
  } catch (const Error& e) {
    FAIL() << what << ": " << e.what();
  }
  ASSERT_NE(r.sim, nullptr) << what;
  EXPECT_EQ(r.meta.chunk_index, boundary) << what;
  // The restored simulator is immediately self-consistent, and agrees
  // with the live one on the protocol invariants (hybrid legitimately
  // violates them when an address's classification flips — a faithful
  // restore reproduces that too).
  EXPECT_EQ(r.sim->invariants_ok(), head.invariants_ok()) << what;
  EXPECT_TRUE(r.sim->directory_consistent()) << what;
  EXPECT_TRUE(r.sim->inclusion_ok()) << what;
  // ...and finishing the tail reproduces the uninterrupted run exactly.
  replay_chunks(*r.sim, t, boundary, t.num_chunks());
  EXPECT_EQ(r.sim->stats(), full.stats()) << what;
  expect_same_lines(*r.sim, full, what);
}

/// The timed half: the same interruption through TimedReplay.
void check_timed(const ChunkedTrace& t, const CacheConfig& cfg, unsigned pes,
                 DirRep rep, const TimingParams& tp, std::size_t boundary,
                 const std::string& what) {
  const u64 hash = timed_config_hash(cfg, pes, resolve_wide(rep, pes), tp,
                                     trace_fingerprint(t));
  TimedReplay full(cfg, pes, tp, rep);
  replay_chunks(full, t, 0, t.num_chunks());

  TimedReplay head(cfg, pes, tp, rep);
  replay_chunks(head, t, 0, boundary);
  CheckpointMeta meta;
  meta.config_hash = hash;
  meta.chunk_index = boundary;
  meta.refs_done = head.traffic().refs;
  meta.timed = true;
  std::string frame = checkpoint_serialize(meta, head);

  RestoredReplay r;
  try {
    r = checkpoint_parse(frame, cfg, pes, rep, &tp, hash);
  } catch (const Error& e) {
    FAIL() << what << ": " << e.what();
  }
  ASSERT_NE(r.timed, nullptr) << what;
  replay_chunks(*r.timed, t, boundary, t.num_chunks());
  EXPECT_EQ(r.timed->traffic(), full.traffic()) << what;
  expect_same_timing(r.timed->timing(), full.timing(), what);
}

// --- the full combination matrix -------------------------------------------

TEST(CheckpointDiff, UntimedResumeEquivalenceAllCombinations) {
  // 3 chunks -> interior boundaries 1 and 2; 5 protocols x {flat,
  // wide} x {no-L2, inclusive L2}.
  std::shared_ptr<const ChunkedTrace> t =
      chunked(0xD1FF, 4, 2 * kChunkRefs + 7001);
  ASSERT_EQ(t->num_chunks(), 3u);
  for (Protocol p : kAllProtocols) {
    for (DirRep rep : {DirRep::Auto, DirRep::Wide}) {
      for (bool hier : {false, true}) {
        CacheConfig cfg = make_cfg(p, hier);
        for (std::size_t boundary : {std::size_t(1), std::size_t(2)}) {
          check_untimed(*t, cfg, 4, rep, boundary,
                        protocol_name(p) + (rep == DirRep::Wide ? " wide" : "") +
                            (hier ? " hier" : "") + " @" +
                            std::to_string(boundary));
        }
      }
    }
  }
}

TEST(CheckpointDiff, TimedResumeEquivalenceAllCombinations) {
  // The timed engine replays slower; 2 chunks (one interior boundary)
  // keep the 5 x 2 x 2 timed matrix fast while still crossing a real
  // chunk boundary with live write buffers and a populated timeline.
  std::shared_ptr<const ChunkedTrace> t = chunked(0xD200, 4, kChunkRefs + 5003);
  ASSERT_EQ(t->num_chunks(), 2u);
  TimingParams tp = make_tp();
  for (Protocol p : kAllProtocols) {
    for (DirRep rep : {DirRep::Auto, DirRep::Wide}) {
      for (bool hier : {false, true}) {
        CacheConfig cfg = make_cfg(p, hier);
        check_timed(*t, cfg, 4, rep, tp, 1,
                    protocol_name(p) + (rep == DirRep::Wide ? " wide" : "") +
                        (hier ? " hier" : "") + " timed");
      }
    }
  }
}

TEST(CheckpointDiff, RandomizedInterruptPointsLongTrace) {
  // A longer trace, interrupt boundaries drawn at random (per
  // protocol, deterministically seeded) — the statement "ANY chunk
  // boundary" rather than the two interior points above.
  std::shared_ptr<const ChunkedTrace> t =
      chunked(0xD201, 8, 4 * kChunkRefs + 311);
  ASSERT_EQ(t->num_chunks(), 5u);
  Lcg rng(0x1B07);
  for (Protocol p : kAllProtocols) {
    CacheConfig cfg = make_cfg(p, /*hier=*/p == Protocol::Hybrid);
    for (int k = 0; k < 2; ++k) {
      std::size_t boundary = 1 + rng.next(t->num_chunks() - 1);
      check_untimed(*t, cfg, 8, DirRep::Auto, boundary,
                    protocol_name(p) + " random@" + std::to_string(boundary));
    }
  }
}

TEST(CheckpointDiff, ZeroCostTimingResumesToo) {
  // The degenerate timing parameters (idealised bus) exercise the
  // empty-timeline / no-write-buffer restore paths.
  std::shared_ptr<const ChunkedTrace> t = chunked(0xD202, 4, kChunkRefs + 777);
  check_timed(*t, make_cfg(Protocol::WriteInBroadcast, false), 4, DirRep::Auto,
              TimingParams::zero_cost(), 1, "zero-cost timed");
}

// --- the same equivalence through the durable file path --------------------

struct TempCkpt {
  explicit TempCkpt(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("rapwam_ckptdiff_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    cleanup();
  }
  ~TempCkpt() { cleanup(); }
  void cleanup() {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".prev", ec);
    fs::remove(path + ".tmp", ec);
  }
  std::string path;
};

TEST(CheckpointDiff, FileRoundTripUntimed) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xD203, 4, 2 * kChunkRefs + 99);
  CacheConfig cfg = make_cfg(Protocol::Hybrid, /*hier=*/true);
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));

  MultiCacheSim full(cfg, 4);
  replay_chunks(full, *t, 0, t->num_chunks());

  TempCkpt tc("untimed");
  CheckpointWriter w(tc.path);
  MultiCacheSim head(cfg, 4);
  replay_chunks(head, *t, 0, 2);
  CheckpointMeta meta;
  meta.config_hash = hash;
  meta.chunk_index = 2;
  meta.refs_done = head.stats().refs;
  std::string frame = checkpoint_serialize(meta, head);
  w.publish(frame);

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->restored.sim, nullptr);
  replay_chunks(*got->restored.sim, *t, got->restored.meta.chunk_index,
                t->num_chunks());
  EXPECT_EQ(got->restored.sim->stats(), full.stats());
  expect_same_lines(*got->restored.sim, full, "file round trip");
}

TEST(CheckpointDiff, FileRoundTripTimed) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xD204, 4, kChunkRefs + 4242);
  CacheConfig cfg = make_cfg(Protocol::WriteThrough, /*hier=*/false);
  TimingParams tp = make_tp();
  const u64 hash = timed_config_hash(cfg, 4, false, tp, trace_fingerprint(*t));

  TimedReplay full(cfg, 4, tp);
  replay_chunks(full, *t, 0, t->num_chunks());

  TempCkpt tc("timed");
  CheckpointWriter w(tc.path);
  TimedReplay head(cfg, 4, tp);
  replay_chunks(head, *t, 0, 1);
  CheckpointMeta meta;
  meta.config_hash = hash;
  meta.chunk_index = 1;
  meta.refs_done = head.traffic().refs;
  meta.timed = true;
  w.publish(checkpoint_serialize(meta, head));

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, &tp, hash);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->restored.timed, nullptr);
  replay_chunks(*got->restored.timed, *t, got->restored.meta.chunk_index,
                t->num_chunks());
  EXPECT_EQ(got->restored.timed->traffic(), full.traffic());
  expect_same_timing(got->restored.timed->timing(), full.timing(),
                     "file round trip timed");
}

// --- the real thing: SIGKILL a replaying process and recover ----------------
//
// Named CheckpointKill (not CheckpointDiff) so the TSan CI shard's
// suite filter never picks it up: fork() in an instrumented binary is
// unsupported, and the kill matrix adds nothing to data-race coverage.

/// Replays `t` in a forked child that publishes a checkpoint at every
/// chunk boundary; the parent SIGKILLs it after `kill_after_ms` and
/// recovers. Returns the child's pid for waitpid bookkeeping.
pid_t spawn_replaying_child(const ChunkedTrace& t, const CacheConfig& cfg,
                            unsigned pes, u64 hash, const std::string& path) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: replay with a per-chunk delay (so the parent's kill lands
  // mid-run), publishing at every boundary, then spin until killed —
  // it must never exit on its own, only by SIGKILL.
  try {
    CheckpointWriter w(path);
    MultiCacheSim sim(cfg, pes);
    for (std::size_t i = 0; i < t.num_chunks(); ++i) {
      sim.replay(t.chunk(i).data(), t.chunk(i).size());
      CheckpointMeta meta;
      meta.config_hash = hash;
      meta.chunk_index = i + 1;
      meta.refs_done = sim.stats().refs;
      w.publish(checkpoint_serialize(meta, sim));
      ::usleep(10000);  // 10 ms per chunk: the parent kills mid-trace
    }
    for (;;) ::pause();
  } catch (...) {
    ::_exit(3);  // any error: the parent's waitpid assertions catch it
  }
  ::_exit(3);  // unreachable
}

TEST(CheckpointKill, SigkilledReplayResumesBitIdentical) {
  std::shared_ptr<const ChunkedTrace> t =
      chunked(0xD205, 4, 3 * kChunkRefs + 500);
  CacheConfig cfg = make_cfg(Protocol::WriteInBroadcast, /*hier=*/false);
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));

  MultiCacheSim full(cfg, 4);
  replay_chunks(full, *t, 0, t->num_chunks());

  TempCkpt tc("kill");
  pid_t pid = spawn_replaying_child(*t, cfg, 4, hash, tc.path);
  ASSERT_GT(pid, 0);

  // Wait until at least one snapshot is published (atomic rename: the
  // file existing means it is complete), then SIGKILL — no shutdown
  // path of any kind runs in the child.
  for (int i = 0; i < 1000 && !fs::exists(tc.path); ++i) ::usleep(10000);
  ASSERT_TRUE(fs::exists(tc.path)) << "child never published a checkpoint";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited on its own (status " << status << ")";

  // Recover from whatever the dead process left behind and finish.
  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->restored.sim, nullptr);
  ASSERT_GE(got->restored.meta.chunk_index, 1u);
  replay_chunks(*got->restored.sim, *t, got->restored.meta.chunk_index,
                t->num_chunks());
  EXPECT_EQ(got->restored.sim->stats(), full.stats());
  expect_same_lines(*got->restored.sim, full, "sigkill resume");
}

TEST(CheckpointKill, KillAtArbitraryTimesAlwaysRecovers) {
  // The kill lands wherever it lands — possibly mid-publication, torn
  // temporary and all. Whatever survives on disk, recovery (resume or
  // clean start) must reproduce the uninterrupted stats exactly.
  std::shared_ptr<const ChunkedTrace> t =
      chunked(0xD206, 4, 2 * kChunkRefs + 123);
  CacheConfig cfg = make_cfg(Protocol::Hybrid, /*hier=*/true);
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));

  MultiCacheSim full(cfg, 4);
  replay_chunks(full, *t, 0, t->num_chunks());

  Lcg rng(0x6B11);
  for (int round = 0; round < 3; ++round) {
    TempCkpt tc("killrnd" + std::to_string(round));
    pid_t pid = spawn_replaying_child(*t, cfg, 4, hash, tc.path);
    ASSERT_GT(pid, 0);
    ::usleep(static_cast<useconds_t>(rng.next(40) * 1000));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    std::unique_ptr<MultiCacheSim> tail;
    std::size_t start = 0;
    if (fs::exists(tc.path) || fs::exists(tc.path + ".prev")) {
      std::optional<ResumeOutcome> got =
          checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
      ASSERT_TRUE(got.has_value()) << "round " << round;
      tail = std::move(got->restored.sim);
      start = got->restored.meta.chunk_index;
    }
    if (!tail) tail = std::make_unique<MultiCacheSim>(cfg, 4);
    replay_chunks(*tail, *t, start, t->num_chunks());
    EXPECT_EQ(tail->stats(), full.stats()) << "round " << round;
  }
}

}  // namespace
}  // namespace rapwam
