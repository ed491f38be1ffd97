// The sweep journal (checkpoint/journal.h): a write-ahead log of
// completed sweep points that makes run_sweep resumable. Pinned here:
//
//   * resumed sweeps return journaled stats VERBATIM — proven by
//     planting a sentinel record and observing run_sweep hand it back
//     instead of re-simulating;
//   * a torn or checksum-damaged tail is truncated away and counted,
//     and the journal keeps appending cleanly afterwards;
//   * a header mismatch — wrong magic, wrong version, a config hash
//     from a different sweep — is a hard Error: results must never
//     cross experiments.
//
// Layout facts used below: 16-byte header (magic, version, config
// hash), fixed 172-byte records (magic + index + 19 x u64 stats +
// checksum).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/sweep.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/journal.h"
#include "test_rand.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 172;

struct TempJournal {
  explicit TempJournal(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("rapwam_journal_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  ~TempJournal() {
    std::error_code ec;
    fs::remove(path, ec);
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

struct SweepFixture {
  std::shared_ptr<const ChunkedTrace> trace;
  std::vector<SweepPoint> points;
  u64 hash = 0;

  explicit SweepFixture(u64 seed) {
    std::vector<u64> t = random_trace(seed, 4, 12000);
    ChunkingSink sink(/*busy_only=*/true);
    sink.on_chunk(t.data(), t.size());
    trace = sink.take();
    const Protocol protos[] = {Protocol::WriteThrough,
                               Protocol::WriteInBroadcast, Protocol::Hybrid};
    int label = 0;
    for (Protocol p : protos) {
      for (u32 sz : {256u, 1024u}) {
        SweepPoint sp;
        sp.cfg.protocol = p;
        sp.cfg.size_words = sz;
        sp.cfg.line_words = 4;
        sp.cfg.write_allocate = true;
        sp.num_pes = 4;
        sp.chunks = trace.get();
        sp.label = label++;
        points.push_back(sp);
      }
    }
    hash = sweep_config_hash(points, trace_fingerprint(*trace));
  }
};

TrafficStats sentinel_stats() {
  TrafficStats s;
  s.refs = 12345;
  s.misses = 777;
  s.bus_words = 99999;  // impossible for these points: refs would differ
  return s;
}

// --- record / resume -------------------------------------------------------

TEST(SweepJournal, RecordsEveryPointAndResumesVerbatim) {
  SweepFixture fx(0x5E01);
  TempJournal tj("roundtrip");
  ThreadPool pool(4);

  std::vector<SweepResult> first;
  {
    SweepJournal j(tj.path, fx.hash);
    EXPECT_EQ(j.done_count(), 0u);
    first = run_sweep(pool, fx.points, nullptr, &j);
    EXPECT_EQ(j.done_count(), fx.points.size());
    EXPECT_EQ(j.torn_records_dropped(), 0u);
  }
  EXPECT_EQ(fs::file_size(tj.path),
            kHeaderBytes + fx.points.size() * kRecordBytes);

  // Reopen: everything is done, and a resumed sweep returns rows
  // bit-identical to the first run's.
  SweepJournal j2(tj.path, fx.hash);
  EXPECT_EQ(j2.done_count(), fx.points.size());
  std::vector<SweepResult> second = run_sweep(pool, fx.points, nullptr, &j2);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(second[i].stats, first[i].stats) << "point " << i;
}

TEST(SweepJournal, DonePointsAreNotResimulated) {
  SweepFixture fx(0x5E02);
  TempJournal tj("sentinel");
  // Plant a sentinel for point 0 that no simulation could produce: if
  // run_sweep hands it back, the point was skipped, not recomputed.
  SweepJournal j(tj.path, fx.hash);
  j.record(0, sentinel_stats());
  ASSERT_TRUE(j.is_done(0));
  EXPECT_FALSE(j.is_done(1));

  ThreadPool pool(4);
  std::vector<SweepResult> got = run_sweep(pool, fx.points, nullptr, &j);
  EXPECT_EQ(got[0].stats, sentinel_stats());
  // The fresh points computed normally and were journaled.
  TrafficStats want1 =
      replay_traffic(fx.points[1].cfg, fx.points[1].num_pes, *fx.trace);
  EXPECT_EQ(got[1].stats, want1);
  EXPECT_EQ(j.done_count(), fx.points.size());
}

// --- torn / damaged tails --------------------------------------------------

TEST(SweepJournal, TornTailIsTruncatedAndCounted) {
  SweepFixture fx(0x5E04);
  TempJournal tj("torn");
  {
    SweepJournal j(tj.path, fx.hash);
    j.record(0, sentinel_stats());
    j.record(1, sentinel_stats());
  }
  // Append half a record: the crash-mid-append shape.
  std::string bytes = read_file(tj.path);
  write_file(tj.path, bytes + std::string(kRecordBytes / 2, '\x5A'));

  SweepJournal j(tj.path, fx.hash);
  EXPECT_EQ(j.done_count(), 2u);
  EXPECT_EQ(j.torn_records_dropped(), 1u);
  // The torn bytes are gone from disk and appending resumes cleanly.
  EXPECT_EQ(fs::file_size(tj.path), kHeaderBytes + 2 * kRecordBytes);
  j.record(2, sentinel_stats());
  EXPECT_EQ(fs::file_size(tj.path), kHeaderBytes + 3 * kRecordBytes);
}

TEST(SweepJournal, ChecksumDamageDropsTheTailNeverReplaysIt) {
  SweepFixture fx(0x5E05);
  TempJournal tj("flip");
  {
    SweepJournal j(tj.path, fx.hash);
    for (u64 i = 0; i < 3; ++i) j.record(i, sentinel_stats());
  }
  // Flip one byte inside record 1: records are validated front to
  // back, so record 1 AND the (intact) record 2 behind it are dropped
  // — a damaged middle record makes everything after it untrusted.
  std::string bytes = read_file(tj.path);
  std::size_t off = kHeaderBytes + kRecordBytes + kRecordBytes / 2;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
  write_file(tj.path, bytes);

  SweepJournal j(tj.path, fx.hash);
  EXPECT_EQ(j.done_count(), 1u);
  EXPECT_TRUE(j.is_done(0));
  EXPECT_FALSE(j.is_done(1));
  EXPECT_FALSE(j.is_done(2));
  EXPECT_EQ(j.torn_records_dropped(), 2u);
  EXPECT_EQ(fs::file_size(tj.path), kHeaderBytes + kRecordBytes);
}

// --- header validation -----------------------------------------------------

TEST(SweepJournal, ConfigHashMismatchIsAHardError) {
  SweepFixture fx(0x5E06);
  TempJournal tj("hash");
  {
    SweepJournal j(tj.path, fx.hash);
    j.record(0, sentinel_stats());
  }
  // A different sweep (different points) must refuse the journal —
  // and must NOT clobber it: the file is someone else's results.
  EXPECT_THROW(SweepJournal(tj.path, fx.hash ^ 1), Error);
  EXPECT_EQ(fs::file_size(tj.path), kHeaderBytes + kRecordBytes);
  SweepJournal again(tj.path, fx.hash);  // the rightful owner still can
  EXPECT_EQ(again.done_count(), 1u);
}

TEST(SweepJournal, SweepConfigHashSeparatesSweeps) {
  SweepFixture a(0x5E07);
  u64 fp = trace_fingerprint(*a.trace);
  // Any change to the point list changes the hash: reordering,
  // dropping a point, or altering one knob.
  std::vector<SweepPoint> reordered = a.points;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(sweep_config_hash(reordered, fp), a.hash);
  std::vector<SweepPoint> shorter(a.points.begin(), a.points.end() - 1);
  EXPECT_NE(sweep_config_hash(shorter, fp), a.hash);
  std::vector<SweepPoint> tweaked = a.points;
  tweaked[2].cfg.write_allocate = !tweaked[2].cfg.write_allocate;
  EXPECT_NE(sweep_config_hash(tweaked, fp), a.hash);
  EXPECT_NE(sweep_config_hash(a.points, fp ^ 1), a.hash);  // other trace
}

TEST(SweepJournal, BadMagicVersionOrShortHeaderRejected) {
  SweepFixture fx(0x5E08);
  TempJournal tj("header");
  {
    SweepJournal j(tj.path, fx.hash);
    j.record(0, sentinel_stats());
  }
  std::string good = read_file(tj.path);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  write_file(tj.path, bad_magic);
  EXPECT_THROW(SweepJournal(tj.path, fx.hash), Error);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(kJournalVersion + 1);
  write_file(tj.path, bad_version);
  EXPECT_THROW(SweepJournal(tj.path, fx.hash), Error);

  write_file(tj.path, good.substr(0, kHeaderBytes / 2));
  EXPECT_THROW(SweepJournal(tj.path, fx.hash), Error);
}

TEST(SweepJournal, PreviousVersionRefusedByVersion) {
  // A version-1 journal keyed its sweep with the byte-wise trace
  // fingerprint; refusing it as "a different sweep" would mislead, so
  // the version check names it first.
  SweepFixture fx(0x5E09);
  TempJournal tj("v1");
  {
    SweepJournal j(tj.path, fx.hash);
    j.record(0, sentinel_stats());
  }
  std::string v1 = read_file(tj.path);
  v1[4] = 1;
  v1[5] = v1[6] = v1[7] = 0;
  write_file(tj.path, v1);
  try {
    SweepJournal j(tj.path, fx.hash);
    FAIL() << "expected the version-1 journal to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1 not supported (expected 2)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rapwam
