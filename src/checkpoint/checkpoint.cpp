#include "checkpoint/checkpoint.h"

#include <cstdio>

#include "support/atomic_file.h"

namespace rapwam {

u64 trace_fingerprint(const ChunkedTrace& t) { return t.fingerprint(); }

namespace {

void hash_config(ByteWriter& w, const CacheConfig& cfg, unsigned num_pes,
                 bool wide, u64 trace_fp) {
  w.put_u8(static_cast<u8>(cfg.protocol));
  w.put_u32(cfg.size_words);
  w.put_u32(cfg.line_words);
  w.put_u8(cfg.write_allocate ? 1 : 0);
  w.put_u32(cfg.ways);
  w.put_u32(cfg.l2.size_words);
  w.put_u32(cfg.l2.ways);
  w.put_u8(static_cast<u8>(cfg.l2.inclusion));
  w.put_u32(cfg.l2.hit_extra_cycles);
  w.put_u32(num_pes);
  w.put_u8(wide ? 1 : 0);
  w.put_u64(trace_fp);
}

}  // namespace

u64 replay_config_hash(const CacheConfig& cfg, unsigned num_pes, bool wide,
                       u64 trace_fp) {
  ByteWriter w;
  w.put_u8(0);  // untimed
  hash_config(w, cfg, num_pes, wide, trace_fp);
  return fnv1a(w.str().data(), w.str().size());
}

u64 timed_config_hash(const CacheConfig& cfg, unsigned num_pes, bool wide,
                      const TimingParams& tp, u64 trace_fp) {
  ByteWriter w;
  w.put_u8(1);  // timed
  hash_config(w, cfg, num_pes, wide, trace_fp);
  w.put_u32(tp.cycles_per_ref);
  w.put_u32(tp.bus_service_cycles);
  w.put_u32(tp.interleave);
  w.put_u32(tp.write_buffer_depth);
  w.put_u32(tp.mem_extra_cycles);
  return fnv1a(w.str().data(), w.str().size());
}

namespace {

std::string frame_from_payload(ByteWriter&& payload) {
  std::string body = payload.take();
  ByteWriter frame;
  frame.put_u32(kCheckpointMagic);
  frame.put_u32(kCheckpointVersion);
  frame.put_u64(body.size());
  frame.put_u64(fnv1a(body.data(), body.size()));
  frame.put_bytes(body.data(), body.size());
  return frame.take();
}

ByteWriter payload_header(const CheckpointMeta& meta) {
  ByteWriter w;
  w.put_u64(meta.config_hash);
  w.put_u8(meta.timed ? 1 : 0);
  w.put_u64(meta.chunk_index);
  w.put_u64(meta.refs_done);
  return w;
}

}  // namespace

std::string checkpoint_serialize(const CheckpointMeta& meta,
                                 const MultiCacheSim& sim) {
  RW_CHECK(!meta.timed, "untimed checkpoint with a timed meta");
  ByteWriter w = payload_header(meta);
  sim.save_state(w);
  return frame_from_payload(std::move(w));
}

std::string checkpoint_serialize(const CheckpointMeta& meta,
                                 const TimedReplay& replay) {
  RW_CHECK(meta.timed, "timed checkpoint with an untimed meta");
  ByteWriter w = payload_header(meta);
  replay.save_state(w);
  return frame_from_payload(std::move(w));
}

RestoredReplay checkpoint_parse(const std::string& frame,
                                const CacheConfig& cfg, unsigned num_pes,
                                DirRep rep, const TimingParams* tp,
                                u64 expected_hash) {
  // Outside-in validation: nothing below constructs or mutates
  // simulator state until the frame as a whole has proven intact.
  ByteReader hdr(frame, "checkpoint");
  if (frame.size() < 24)
    fail("checkpoint: file too short to hold a frame header (" +
         std::to_string(frame.size()) + " bytes)");
  if (hdr.get_u32() != kCheckpointMagic)
    fail("checkpoint: bad magic (not a checkpoint file)");
  u32 version = hdr.get_u32();
  if (version != kCheckpointVersion)
    fail("checkpoint: version " + std::to_string(version) +
         " not supported (expected " + std::to_string(kCheckpointVersion) + ")");
  u64 payload_len = hdr.get_u64();
  u64 checksum = hdr.get_u64();
  if (payload_len != hdr.remaining())
    fail("checkpoint: payload length " + std::to_string(payload_len) +
         " does not match the " + std::to_string(hdr.remaining()) +
         " bytes present");
  const char* payload = frame.data() + hdr.offset();
  if (fnv1a(payload, payload_len) != checksum)
    fail("checkpoint: checksum mismatch (corrupt frame)");

  ByteReader r(payload, payload_len, "checkpoint");
  RestoredReplay out;
  out.meta.config_hash = r.get_u64();
  out.meta.timed = r.get_u8() != 0;
  out.meta.chunk_index = r.get_u64();
  out.meta.refs_done = r.get_u64();
  if (out.meta.config_hash != expected_hash)
    fail("checkpoint: configuration hash mismatch (frame was cut from a "
         "different run: config, PE count, timing or trace differ)");
  if (out.meta.timed != (tp != nullptr))
    fail(out.meta.timed
             ? "checkpoint: timed frame offered to an untimed replay"
             : "checkpoint: untimed frame offered to a timed replay");

  if (tp) {
    out.timed = std::make_unique<TimedReplay>(cfg, num_pes, *tp, rep);
    out.timed->restore_state(r);
  } else {
    out.sim = std::make_unique<MultiCacheSim>(cfg, num_pes, rep);
    out.sim->restore_state(r);
  }
  r.expect_end();
  u64 refs = tp ? out.timed->traffic().refs : out.sim->stats().refs;
  if (refs != out.meta.refs_done)
    fail("checkpoint: reference count " + std::to_string(refs) +
         " disagrees with the recorded " + std::to_string(out.meta.refs_done));
  return out;
}

CheckpointWriter::CheckpointWriter(std::string path)
    : path_(std::move(path)),
      prev_path_(path_ + ".prev"),
      tmp_path_(path_ + ".tmp") {
  RW_CHECK(!path_.empty(), "checkpoint path must not be empty");
}

u64 CheckpointWriter::publish(const std::string& frame) {
  u64 index = written_;
  std::FILE* f = std::fopen(tmp_path_.c_str(), "wb");
  if (!f) fail("cannot create checkpoint temporary " + tmp_path_);
  if (std::fwrite(frame.data(), 1, frame.size(), f) != frame.size()) {
    std::fclose(f);
    std::remove(tmp_path_.c_str());
    fail("cannot write checkpoint temporary " + tmp_path_);
  }
  try {
    flush_and_sync(f, "checkpoint temporary " + tmp_path_);
  } catch (...) {
    std::fclose(f);
    std::remove(tmp_path_.c_str());
    throw;
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp_path_.c_str());
    fail("cannot close checkpoint temporary " + tmp_path_);
  }
  // Keep the previous snapshot as the fallback: if the rename below
  // (or later damage) spoils `path`, resume still has `path.prev`. The
  // rotation rename is atomic on the same directory.
  std::remove(prev_path_.c_str());
  std::rename(path_.c_str(), prev_path_.c_str());  // ENOENT on first write: fine
  publish_file(tmp_path_, path_);
  ++written_;
  return index;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) fail("cannot read checkpoint " + path);
  return true;
}

}  // namespace

std::optional<ResumeOutcome> checkpoint_resume(const std::string& path,
                                               const CacheConfig& cfg,
                                               unsigned num_pes, DirRep rep,
                                               const TimingParams* tp,
                                               u64 expected_hash) {
  ResumeOutcome out;
  bool found_any = false;
  for (const std::string& candidate : {path, path + ".prev"}) {
    std::string frame;
    if (!read_file(candidate, frame)) continue;
    found_any = true;
    try {
      out.restored = checkpoint_parse(frame, cfg, num_pes, rep, tp,
                                      expected_hash);
      out.source = candidate;
      return out;
    } catch (const Error& e) {
      ++out.rejected;
      out.errors.push_back(candidate + ": " + e.what());
    }
  }
  if (!found_any) return std::nullopt;
  std::string why;
  for (const std::string& e : out.errors) why += "\n  " + e;
  fail("no usable checkpoint at " + path + ":" + why);
}

}  // namespace rapwam
