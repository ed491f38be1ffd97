#include "checkpoint/journal.h"

#include <unistd.h>

#include "cache/sweep.h"
#include "support/atomic_file.h"
#include "support/bytes.h"

namespace rapwam {

namespace {
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kRecordBytes = 4 + 8 + 19 * 8 + 8;

std::string record_body(u64 index, const TrafficStats& stats) {
  ByteWriter w;
  w.put_u64(index);
  save_traffic(w, stats);
  return w.take();
}
}  // namespace

u64 sweep_config_hash(const std::vector<SweepPoint>& points, u64 trace_fp) {
  ByteWriter w;
  w.put_u64(trace_fp);
  w.put_u64(points.size());
  for (const SweepPoint& p : points) {
    w.put_u8(static_cast<u8>(p.cfg.protocol));
    w.put_u32(p.cfg.size_words);
    w.put_u32(p.cfg.line_words);
    w.put_u8(p.cfg.write_allocate ? 1 : 0);
    w.put_u32(p.cfg.ways);
    w.put_u32(p.cfg.l2.size_words);
    w.put_u32(p.cfg.l2.ways);
    w.put_u8(static_cast<u8>(p.cfg.l2.inclusion));
    w.put_u32(p.cfg.l2.hit_extra_cycles);
    w.put_u32(p.num_pes);
    w.put_u32(static_cast<u32>(p.label));
  }
  return fnv1a(w.str().data(), w.str().size());
}

SweepJournal::SweepJournal(const std::string& path, u64 config_hash)
    : path_(path) {
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) fail("cannot read sweep journal " + path);
  }

  if (bytes.empty()) {
    // Fresh journal: write and sync the header before any point runs.
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_) fail("cannot create sweep journal " + path);
    ByteWriter w;
    w.put_u32(kJournalMagic);
    w.put_u32(kJournalVersion);
    w.put_u64(config_hash);
    std::string hdr = w.take();
    if (std::fwrite(hdr.data(), 1, hdr.size(), f_) != hdr.size()) {
      std::fclose(f_);
      f_ = nullptr;
      fail("cannot write sweep journal header " + path);
    }
    flush_and_sync(f_, "sweep journal " + path);
    return;
  }

  // Existing journal: a damaged header means the file is not a
  // journal for anything — refuse rather than clobber; a damaged
  // record tail is the expected crash artifact and is dropped.
  if (bytes.size() < kHeaderBytes)
    fail("sweep journal " + path + ": truncated header");
  ByteReader h(bytes.data(), kHeaderBytes, "sweep journal");
  if (h.get_u32() != kJournalMagic)
    fail("sweep journal " + path + ": bad magic (not a journal)");
  u32 version = h.get_u32();
  if (version != kJournalVersion)
    fail("sweep journal " + path + ": version " + std::to_string(version) +
         " not supported (expected " + std::to_string(kJournalVersion) + ")");
  u64 hash = h.get_u64();
  if (hash != config_hash)
    fail("sweep journal " + path +
         ": configuration hash mismatch — this journal records a different "
         "sweep (points, trace or order differ); refusing to mix results");

  std::size_t good_end = kHeaderBytes;
  while (bytes.size() - good_end >= kRecordBytes) {
    ByteReader r(bytes.data() + good_end, kRecordBytes, "sweep journal record");
    if (r.get_u32() != kJournalMagic) break;
    std::string body(bytes.data() + good_end + 4, kRecordBytes - 4 - 8);
    u64 index;
    TrafficStats stats;
    {
      ByteReader br(body, "sweep journal record");
      index = br.get_u64();
      stats = load_traffic(br);
    }
    ByteReader tail(bytes.data() + good_end + 4 + body.size(), 8,
                    "sweep journal record");
    if (tail.get_u64() != fnv1a(body.data(), body.size())) break;
    done_[index] = stats;
    good_end += kRecordBytes;
  }
  std::size_t dropped = bytes.size() - good_end;
  torn_dropped_ = (dropped + kRecordBytes - 1) / kRecordBytes;
  if (dropped) {
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0)
      fail("cannot truncate torn records from sweep journal " + path);
  }
  f_ = std::fopen(path.c_str(), "ab");
  if (!f_) fail("cannot reopen sweep journal " + path);
}

SweepJournal::~SweepJournal() {
  if (f_) std::fclose(f_);
}

void SweepJournal::record(u64 point_index, const TrafficStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string body = record_body(point_index, stats);
  ByteWriter w;
  w.put_u32(kJournalMagic);
  w.put_bytes(body.data(), body.size());
  w.put_u64(fnv1a(body.data(), body.size()));
  const std::string& rec = w.str();
  RW_CHECK(rec.size() == kRecordBytes, "sweep journal record size drifted");
  if (std::fwrite(rec.data(), 1, rec.size(), f_) != rec.size())
    fail("cannot append to sweep journal " + path_);
  // Sync per record: each completed point is durable the moment
  // record() returns, so a crash can only lose work in flight.
  flush_and_sync(f_, "sweep journal " + path_);
  done_[point_index] = stats;
}

bool SweepJournal::is_done(u64 point_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.count(point_index) != 0;
}

const TrafficStats& SweepJournal::result(u64 point_index) const {
  // std::map references are stable, so handing one out after unlocking
  // is safe; records are only ever added, never moved or erased.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = done_.find(point_index);
  RW_CHECK(it != done_.end(), "sweep journal result() of an unrecorded point");
  return it->second;
}

}  // namespace rapwam
