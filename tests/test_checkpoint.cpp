// Unit tests for the checkpoint subsystem (src/checkpoint): the byte
// codec underneath every frame, serialize/parse round trips, the
// config-hash binding that stops a frame resuming a different
// experiment, the rotating durable writer (path / path.prev / torn
// tmp), and the crash/corruption matrix, where each test damages the
// files itself — a damaged checkpoint must always be rejected by
// validation and recovery must come from the previous snapshot or a
// clean restart, never from silently corrupt state. The cross-configuration
// resume-equivalence matrix lives in test_checkpoint_diff.cpp; the
// byte-level hostile-input sweep in test_checkpoint_fuzz.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "support/bytes.h"
#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch path (ctest runs suites in parallel); removes the
/// whole checkpoint family (path, .prev, .tmp) on destruction.
struct TempCkpt {
  explicit TempCkpt(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("rapwam_ckpt_" + tag + "_" + std::to_string(::getpid())))
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

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::shared_ptr<const ChunkedTrace> chunked(u64 seed, unsigned pes,
                                            std::size_t n) {
  std::vector<u64> t = random_trace(seed, pes, n);
  ChunkingSink sink(/*busy_only=*/true);
  sink.on_chunk(t.data(), t.size());
  return sink.take();
}

CacheConfig small_cfg() {
  CacheConfig cfg;
  cfg.protocol = Protocol::WriteInBroadcast;
  cfg.size_words = 256;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return cfg;
}

/// Replays `upto` chunks into a fresh simulator and serializes it.
std::string frame_at(const ChunkedTrace& t, const CacheConfig& cfg,
                     unsigned pes, std::size_t upto, u64 hash) {
  MultiCacheSim sim(cfg, pes);
  for (std::size_t i = 0; i < upto; ++i)
    sim.replay(t.chunk(i).data(), t.chunk(i).size());
  CheckpointMeta meta;
  meta.config_hash = hash;
  meta.chunk_index = upto;
  meta.refs_done = sim.stats().refs;
  meta.timed = false;
  return checkpoint_serialize(meta, sim);
}

// --- byte codec ------------------------------------------------------------

TEST(CheckpointUnit, ByteCodecRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  const char blob[] = "rapwam";
  w.put_bytes(blob, sizeof blob);

  std::string bytes = w.str();
  ByteReader r(bytes, "test");
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  char got[sizeof blob];
  r.get_bytes(got, sizeof got);
  EXPECT_EQ(std::string(got, sizeof got), std::string(blob, sizeof blob));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(CheckpointUnit, ByteReaderBoundsChecked) {
  ByteWriter w;
  w.put_u32(7);
  std::string bytes = w.str();

  ByteReader past(bytes, "test");
  past.get_u32();
  EXPECT_THROW(past.get_u8(), Error);  // nothing left

  ByteReader wide(bytes, "test");
  EXPECT_THROW(wide.get_u64(), Error);  // 8 > 4 available

  ByteReader leftover(bytes, "test");
  leftover.get_u8();
  EXPECT_THROW(leftover.expect_end(), Error);  // trailing bytes
}

TEST(CheckpointUnit, Fnv1aSeesEverySingleByteFlip) {
  std::string buf(64, '\0');
  Lcg rng(0xF17);
  for (char& c : buf) c = static_cast<char>(rng.next(256));
  const u64 base = fnv1a(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (u8 bit : {u8(0x01), u8(0x80)}) {
      std::string flipped = buf;
      flipped[i] = static_cast<char>(flipped[i] ^ bit);
      EXPECT_NE(fnv1a(flipped.data(), flipped.size()), base)
          << "byte " << i << " bit " << unsigned(bit);
    }
  }
}

// --- serialize / parse -----------------------------------------------------

TEST(CheckpointUnit, SerializeParseRoundTripRestoresMetaAndState) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E1, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, resolve_wide(DirRep::Auto, 4),
                                      trace_fingerprint(*t));
  std::string frame = frame_at(*t, cfg, 4, 1, hash);

  RestoredReplay r = checkpoint_parse(frame, cfg, 4, DirRep::Auto,
                                      /*tp=*/nullptr, hash);
  EXPECT_EQ(r.meta.config_hash, hash);
  EXPECT_EQ(r.meta.chunk_index, 1u);
  EXPECT_FALSE(r.meta.timed);
  ASSERT_NE(r.sim, nullptr);
  EXPECT_EQ(r.timed, nullptr);
  EXPECT_EQ(r.meta.refs_done, r.sim->stats().refs);

  // The restored simulator equals a fresh replay of the same prefix.
  MultiCacheSim want(cfg, 4);
  want.replay(t->chunk(0).data(), t->chunk(0).size());
  EXPECT_EQ(r.sim->stats(), want.stats());
}

TEST(CheckpointUnit, ConfigHashMismatchRejected) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E2, 2, 20000);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 2, false, trace_fingerprint(*t));
  std::string frame = frame_at(*t, cfg, 2, 1, hash);
  EXPECT_NO_THROW(checkpoint_parse(frame, cfg, 2, DirRep::Auto, nullptr, hash));
  EXPECT_THROW(checkpoint_parse(frame, cfg, 2, DirRep::Auto, nullptr, hash + 1),
               Error);
}

TEST(CheckpointUnit, ConfigHashSeparatesRuns) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E3, 4, 20000);
  const u64 fp = trace_fingerprint(*t);
  CacheConfig cfg = small_cfg();
  const u64 base = replay_config_hash(cfg, 4, false, fp);

  CacheConfig other = cfg;
  other.protocol = Protocol::Hybrid;
  EXPECT_NE(replay_config_hash(other, 4, false, fp), base);
  other = cfg;
  other.size_words = 512;
  EXPECT_NE(replay_config_hash(other, 4, false, fp), base);
  other = cfg;
  other.l2.size_words = 4096;
  EXPECT_NE(replay_config_hash(other, 4, false, fp), base);
  EXPECT_NE(replay_config_hash(cfg, 8, false, fp), base);       // PE count
  EXPECT_NE(replay_config_hash(cfg, 4, true, fp), base);        // wide rep
  EXPECT_NE(replay_config_hash(cfg, 4, false, fp + 1), base);   // trace

  // Timed and untimed runs of the same configuration never share keys.
  TimingParams tp;
  EXPECT_NE(timed_config_hash(cfg, 4, false, tp, fp), base);
  // ... and the timing parameters themselves are bound in.
  TimingParams tp2 = tp;
  tp2.bus_service_cycles = tp.bus_service_cycles + 1;
  EXPECT_NE(timed_config_hash(cfg, 4, false, tp2, fp),
            timed_config_hash(cfg, 4, false, tp, fp));
}

TEST(CheckpointUnit, ModeMismatchRejectedBothWays) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E4, 2, 20000);
  CacheConfig cfg = small_cfg();
  const u64 fp = trace_fingerprint(*t);
  TimingParams tp;
  const u64 uhash = replay_config_hash(cfg, 2, false, fp);
  const u64 thash = timed_config_hash(cfg, 2, false, tp, fp);

  // Untimed frame parsed as timed: rejected even with the right hash.
  std::string uframe = frame_at(*t, cfg, 2, 1, thash);
  EXPECT_THROW(checkpoint_parse(uframe, cfg, 2, DirRep::Auto, &tp, thash),
               Error);

  // Timed frame parsed as untimed.
  TimedReplay tr(cfg, 2, tp);
  tr.replay(t->chunk(0).data(), t->chunk(0).size());
  CheckpointMeta meta;
  meta.config_hash = uhash;
  meta.chunk_index = 1;
  meta.refs_done = tr.traffic().refs;
  meta.timed = true;
  std::string tframe = checkpoint_serialize(meta, tr);
  EXPECT_THROW(checkpoint_parse(tframe, cfg, 2, DirRep::Auto, nullptr, uhash),
               Error);
}

// --- rotating writer / resume ----------------------------------------------

TEST(CheckpointUnit, WriterPublishesDurablyAndRotates) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E5, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));
  std::string f1 = frame_at(*t, cfg, 4, 1, hash);
  std::string f2 = frame_at(*t, cfg, 4, 2, hash);

  TempCkpt tc("writer");
  CheckpointWriter w(tc.path);
  EXPECT_EQ(w.publish(f1), 0u);
  EXPECT_TRUE(fs::exists(tc.path));
  EXPECT_FALSE(fs::exists(tc.path + ".prev"));
  EXPECT_FALSE(fs::exists(tc.path + ".tmp"));  // temp renamed away
  EXPECT_EQ(read_file(tc.path), f1);

  EXPECT_EQ(w.publish(f2), 1u);
  EXPECT_EQ(w.written(), 2u);
  EXPECT_EQ(read_file(tc.path), f2);
  EXPECT_EQ(read_file(tc.path + ".prev"), f1);  // rotation kept the old one

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, tc.path);
  EXPECT_EQ(got->rejected, 0u);
  EXPECT_EQ(got->restored.meta.chunk_index, 2u);
}

TEST(CheckpointUnit, ResumeNoFilesMeansCleanFirstRun) {
  TempCkpt tc("none");
  CacheConfig cfg = small_cfg();
  EXPECT_FALSE(
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, 1).has_value());
}

TEST(CheckpointUnit, DamagedLatestFallsBackToPrev) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E6, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));
  TempCkpt tc("fallback");
  CheckpointWriter w(tc.path);
  w.publish(frame_at(*t, cfg, 4, 1, hash));
  w.publish(frame_at(*t, cfg, 4, 2, hash));

  // Flip one payload byte of the latest snapshot.
  std::string bytes = read_file(tc.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_file(tc.path, bytes);

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, tc.path + ".prev");
  EXPECT_EQ(got->rejected, 1u);
  ASSERT_EQ(got->errors.size(), 1u);
  EXPECT_EQ(got->restored.meta.chunk_index, 1u);
}

TEST(CheckpointUnit, AllCandidatesDamagedIsAStructuredError) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E7, 2, 20000);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 2, false, trace_fingerprint(*t));
  TempCkpt tc("allbad");
  write_file(tc.path, "definitely not a checkpoint");
  write_file(tc.path + ".prev", std::string(100, '\0'));
  EXPECT_THROW(checkpoint_resume(tc.path, cfg, 2, DirRep::Auto, nullptr, hash),
               Error);
}

TEST(CheckpointUnit, PreviousVersionFramesRefusedByVersion) {
  // Version-2 frames bound the byte-wise trace fingerprint, so their
  // config hash can never match; the version check must refuse them
  // first, naming the version, instead of "a different run". The CLI's
  // --resume prints this error and starts clean.
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E8, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));
  TempCkpt tc("v2");
  CheckpointWriter w(tc.path);
  w.publish(frame_at(*t, cfg, 4, 1, hash));
  w.publish(frame_at(*t, cfg, 4, 2, hash));
  for (const std::string& p : {tc.path, tc.path + ".prev"}) {
    std::string bytes = read_file(p);
    bytes[4] = 2;
    bytes[5] = bytes[6] = bytes[7] = 0;
    write_file(p, bytes);
  }
  try {
    checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
    FAIL() << "expected both version-2 frames to be refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string why = "checkpoint: version 2 not supported (expected 3)";
    EXPECT_NE(what.find(tc.path + ": " + why), std::string::npos) << what;
    EXPECT_NE(what.find(tc.path + ".prev: " + why), std::string::npos) << what;
  }
}

// --- fault matrix ----------------------------------------------------------

/// Flips one byte past the 24-byte frame header, so the checksum — not
/// the magic or length check — is what catches it.
void flip_payload_byte(const std::string& path) {
  std::string bytes = read_file(path);
  std::size_t at = 32 + (bytes.size() - 32) / 2;
  bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
  write_file(path, bytes);
}

TEST(CheckpointFault, InjectedCrashLeavesTornTmpAndGoodSnapshot) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E8, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));
  std::string f1 = frame_at(*t, cfg, 4, 1, hash);
  std::string f2 = frame_at(*t, cfg, 4, 2, hash);

  TempCkpt tc("crash");
  CheckpointWriter w(tc.path);
  EXPECT_EQ(w.publish(f1), 0u);
  // A power cut in the middle of the second publication: half of f2
  // reached the temporary, and nothing was renamed.
  write_file(tc.path + ".tmp", f2.substr(0, f2.size() / 2));

  // A torn temporary, and the published snapshot untouched (no
  // rotation happened).
  EXPECT_TRUE(fs::exists(tc.path + ".tmp"));
  EXPECT_LT(fs::file_size(tc.path + ".tmp"), f2.size());
  EXPECT_EQ(read_file(tc.path), f1);
  EXPECT_FALSE(fs::exists(tc.path + ".prev"));

  // Recovery resumes from the surviving snapshot.
  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, tc.path);
  EXPECT_EQ(got->restored.meta.chunk_index, 1u);
}

TEST(CheckpointFault, TruncatedPublicationRejectedByValidation) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4E9, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));

  TempCkpt tc("trunc");
  CheckpointWriter w(tc.path);
  w.publish(frame_at(*t, cfg, 4, 1, hash));
  w.publish(frame_at(*t, cfg, 4, 2, hash));
  // The torn-rename case: the second published file keeps half its bytes.
  std::string full = read_file(tc.path);
  write_file(tc.path, full.substr(0, full.size() / 2));
  EXPECT_LT(fs::file_size(tc.path), full.size());

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, tc.path + ".prev");
  EXPECT_EQ(got->rejected, 1u);
  EXPECT_EQ(got->restored.meta.chunk_index, 1u);
}

TEST(CheckpointFault, FlippedByteRejectedByChecksum) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4EA, 4, 2 * kChunkRefs);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 4, false, trace_fingerprint(*t));

  TempCkpt tc("flip");
  CheckpointWriter w(tc.path);
  w.publish(frame_at(*t, cfg, 4, 1, hash));
  w.publish(frame_at(*t, cfg, 4, 2, hash));
  flip_payload_byte(tc.path);  // silent media corruption after publication

  std::optional<ResumeOutcome> got =
      checkpoint_resume(tc.path, cfg, 4, DirRep::Auto, nullptr, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, tc.path + ".prev");
  EXPECT_EQ(got->rejected, 1u);
  ASSERT_EQ(got->errors.size(), 1u);
  EXPECT_NE(got->errors[0].find("checksum"), std::string::npos)
      << got->errors[0];
}

TEST(CheckpointFault, OnlySnapshotDamagedMeansCleanRestartError) {
  std::shared_ptr<const ChunkedTrace> t = chunked(0xC4EB, 2, 20000);
  CacheConfig cfg = small_cfg();
  const u64 hash = replay_config_hash(cfg, 2, false, trace_fingerprint(*t));

  TempCkpt tc("onlybad");
  CheckpointWriter w(tc.path);
  w.publish(frame_at(*t, cfg, 2, 1, hash));
  flip_payload_byte(tc.path);  // the only snapshot there will ever be

  // No .prev exists; the caller gets a structured Error and decides to
  // restart clean — it can never resume from the damaged frame.
  EXPECT_THROW(checkpoint_resume(tc.path, cfg, 2, DirRep::Auto, nullptr, hash),
               Error);
}

}  // namespace
}  // namespace rapwam
