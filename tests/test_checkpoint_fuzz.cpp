// Hostile-input fuzzing of the checkpoint frame parser
// (checkpoint_parse): every prefix truncation of a valid frame, every
// single-byte corruption, version/magic/length tampering, and plain
// byte soup must throw a structured rapwam::Error — never crash, never
// return a simulator, and never touch caller state (the parser
// restores into a simulator it constructs itself, so a damaged frame
// cannot poison anything; the stateless-API test below pins that a
// failed parse leaves subsequent parses working).
//
// The checksum is FNV-1a, whose absorption step is bijective per byte,
// so any single-byte payload flip changes the digest — the
// flip-every-byte sweep leans on that (and test_checkpoint.cpp's
// Fnv1aSeesEverySingleByteFlip demonstrates it directly).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "support/bytes.h"
#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// A deliberately tiny configuration so the reference frame stays
/// small and the quadratic flip/truncate sweeps stay fast.
CacheConfig tiny_cfg() {
  CacheConfig cfg;
  cfg.protocol = Protocol::WriteInBroadcast;
  cfg.size_words = 64;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return cfg;
}

struct Fixture {
  std::shared_ptr<const ChunkedTrace> trace;
  CacheConfig cfg = tiny_cfg();
  unsigned pes = 2;
  u64 hash = 0;
  std::string frame;  ///< a valid untimed frame at chunk boundary 1

  Fixture() {
    std::vector<u64> t = random_trace(0xF022, pes, 6000);
    ChunkingSink sink(/*busy_only=*/true);
    sink.on_chunk(t.data(), t.size());
    trace = sink.take();
    // A half-replayed prefix is all the parser ever sees — the frame
    // carries refs_done, not the chunk layout — so a small trace keeps
    // the reference frame to ~1 KB and the O(bytes^2) sweeps fast.
    hash = replay_config_hash(cfg, pes, false, trace_fingerprint(*trace));
    MultiCacheSim sim(cfg, pes);
    sim.replay(trace->chunk(0).data(), 3000);
    CheckpointMeta meta;
    meta.config_hash = hash;
    meta.chunk_index = 1;
    meta.refs_done = sim.stats().refs;
    frame = checkpoint_serialize(meta, sim);
  }

  void expect_rejected(const std::string& bytes, const std::string& what) {
    EXPECT_THROW(
        checkpoint_parse(bytes, cfg, pes, DirRep::Auto, nullptr, hash), Error)
        << what;
  }
};

TEST(CheckpointFuzz, ReferenceFrameIsValid) {
  Fixture fx;
  RestoredReplay r =
      checkpoint_parse(fx.frame, fx.cfg, fx.pes, DirRep::Auto, nullptr, fx.hash);
  ASSERT_NE(r.sim, nullptr);
  EXPECT_EQ(r.meta.chunk_index, 1u);
  EXPECT_EQ(r.meta.refs_done, r.sim->stats().refs);
}

TEST(CheckpointFuzz, EveryTruncationRejected) {
  Fixture fx;
  for (std::size_t len = 0; len < fx.frame.size(); ++len)
    fx.expect_rejected(fx.frame.substr(0, len),
                       "truncated to " + std::to_string(len));
}

TEST(CheckpointFuzz, EverySingleByteFlipRejected) {
  Fixture fx;
  for (std::size_t i = 0; i < fx.frame.size(); ++i) {
    for (u8 bit : {u8(0x01), u8(0x80)}) {
      std::string bad = fx.frame;
      bad[i] = static_cast<char>(bad[i] ^ bit);
      fx.expect_rejected(bad, "byte " + std::to_string(i) + " ^ " +
                                  std::to_string(unsigned(bit)));
    }
  }
}

TEST(CheckpointFuzz, TrailingGarbageRejected) {
  Fixture fx;
  fx.expect_rejected(fx.frame + '\0', "one trailing NUL");
  fx.expect_rejected(fx.frame + "garbage", "trailing text");
  fx.expect_rejected(fx.frame + fx.frame, "frame doubled");
}

TEST(CheckpointFuzz, VersionTamperingRejected) {
  Fixture fx;
  // The version field is bytes [4, 8) of the header and is outside the
  // payload checksum: a frame from any other version must be rejected
  // by the version check itself, with nothing else touched.
  for (u32 v : {u32(0), kCheckpointVersion + 1, u32(0xFFFFFFFF)}) {
    std::string bad = fx.frame;
    bad[4] = static_cast<char>(v & 0xFF);
    bad[5] = static_cast<char>((v >> 8) & 0xFF);
    bad[6] = static_cast<char>((v >> 16) & 0xFF);
    bad[7] = static_cast<char>((v >> 24) & 0xFF);
    fx.expect_rejected(bad, "version " + std::to_string(v));
  }
}

TEST(CheckpointFuzz, MagicTamperingRejected) {
  Fixture fx;
  std::string bad = fx.frame;
  bad[0] = 'X';
  fx.expect_rejected(bad, "bad magic");
  // Nor is a near miss in the magic's last two bytes ("RWSJ").
  std::string rwsj = fx.frame;
  rwsj[2] = 'S';
  rwsj[3] = 'J';
  fx.expect_rejected(rwsj, "journal magic");
}

TEST(CheckpointFuzz, ByteSoupRejected) {
  Fixture fx;
  Lcg rng(0x50FA);
  for (std::size_t len : {std::size_t(0), std::size_t(1), std::size_t(23),
                          std::size_t(24), std::size_t(100), std::size_t(4096)}) {
    std::string soup(len, '\0');
    for (char& c : soup) c = static_cast<char>(rng.next(256));
    fx.expect_rejected(soup, "soup of " + std::to_string(len));
  }
}

TEST(CheckpointFuzz, ForgedLengthsRejected) {
  Fixture fx;
  // payload_len is bytes [8, 16). Zero it, max it, off-by-one it: the
  // exact-length check must reject all of them before the payload is
  // believed.
  for (u64 forged :
       {u64(0), u64(1), fx.frame.size() - 24 - 1, fx.frame.size() - 24 + 1,
        u64(1) << 40, ~u64(0)}) {
    std::string bad = fx.frame;
    for (int b = 0; b < 8; ++b)
      bad[8 + b] = static_cast<char>((forged >> (8 * b)) & 0xFF);
    fx.expect_rejected(bad, "payload_len " + std::to_string(forged));
  }
}

TEST(CheckpointFuzz, WrongExpectedHashRejected) {
  Fixture fx;
  EXPECT_THROW(checkpoint_parse(fx.frame, fx.cfg, fx.pes, DirRep::Auto, nullptr,
                                fx.hash ^ 1),
               Error);
}

TEST(CheckpointFuzz, WrongConfigRejected) {
  Fixture fx;
  // Same frame, different caller configuration: the caller computes a
  // different expected hash, so the frame can never restore into a
  // mismatched simulator shape.
  CacheConfig other = fx.cfg;
  other.size_words = 128;
  u64 other_hash =
      replay_config_hash(other, fx.pes, false, trace_fingerprint(*fx.trace));
  EXPECT_NE(other_hash, fx.hash);
  EXPECT_THROW(checkpoint_parse(fx.frame, other, fx.pes, DirRep::Auto, nullptr,
                                other_hash),
               Error);
}

TEST(CheckpointFuzz, FailedParsesAreStateless) {
  Fixture fx;
  // A hostile parse has no side effects: the same Fixture parses the
  // good frame identically before and after a pile of rejections.
  RestoredReplay before =
      checkpoint_parse(fx.frame, fx.cfg, fx.pes, DirRep::Auto, nullptr, fx.hash);
  for (std::size_t len : {std::size_t(0), std::size_t(10), std::size_t(30)})
    fx.expect_rejected(fx.frame.substr(0, len), "interleaved truncation");
  std::string flipped = fx.frame;
  flipped[flipped.size() - 1] ^= 0x01;
  fx.expect_rejected(flipped, "interleaved flip");
  RestoredReplay after =
      checkpoint_parse(fx.frame, fx.cfg, fx.pes, DirRep::Auto, nullptr, fx.hash);
  EXPECT_EQ(before.sim->stats(), after.sim->stats());
}

}  // namespace
}  // namespace rapwam
