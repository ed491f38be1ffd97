#include "trace/chunks.h"

#include <algorithm>

#include "support/atomic_file.h"

namespace rapwam {

// --- ChunkedTrace ---------------------------------------------------------

std::vector<u64> ChunkedTrace::to_packed() const {
  std::vector<u64> out;
  out.reserve(size_);
  for (const std::vector<u64>& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  return out;
}

// --- ChunkingSink ---------------------------------------------------------

ChunkingSink::ChunkingSink(bool busy_only)
    : TraceSink(busy_only), trace_(std::make_shared<ChunkedTrace>()) {}

void ChunkingSink::on_chunk(const u64* packed, std::size_t n) {
  std::vector<std::vector<u64>>& chunks = trace_->chunks_;
  trace_->size_ += n;
  while (n > 0) {
    if (chunks.empty() || chunks.back().size() == kChunkRefs) {
      chunks.emplace_back();
      chunks.back().reserve(kChunkRefs);
    }
    std::vector<u64>& last = chunks.back();
    std::size_t k = std::min(n, kChunkRefs - last.size());
    last.insert(last.end(), packed, packed + k);
    packed += k;
    n -= k;
  }
}

std::shared_ptr<const ChunkedTrace> ChunkingSink::take() {
  std::shared_ptr<const ChunkedTrace> out = std::move(trace_);
  trace_ = std::make_shared<ChunkedTrace>();
  return out;
}

std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string& path,
                                                       bool busy_only) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (!f) fail("cannot open trace file for reading: " + path);
  std::fseek(f.get(), 0, SEEK_END);
  long bytes = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (bytes < 0 || bytes % 8 != 0) fail("trace file has invalid size: " + path);

  ChunkingSink sink(busy_only);
  RefCounts counts;
  std::size_t left = static_cast<std::size_t>(bytes) / 8;
  std::vector<u64> buf(std::min(left, kChunkRefs));
  for (std::size_t index = 0; left > 0;) {
    std::size_t n = std::min(left, kChunkRefs);
    if (std::fread(buf.data(), sizeof(u64), n, f.get()) != n)
      fail("short read from trace file: " + path);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i, ++index) {
      if (!packed_ref_valid(buf[i]))
        fail("trace file " + path + ": corrupted record at index " +
             std::to_string(index));
      MemRef r = MemRef::unpack(buf[i]);
      counts.add(r);
      if (!busy_only || r.busy) buf[kept++] = buf[i];
    }
    sink.on_chunk(buf.data(), kept);
    left -= n;
  }
  sink.on_counts(counts);
  return sink.take();
}

// --- FileTraceSink --------------------------------------------------------

FileTraceSink::FileTraceSink(const std::string& path, bool busy_only)
    : TraceSink(busy_only),
      path_(path),
      tmp_path_(path + ".tmp"),
      f_(std::fopen(tmp_path_.c_str(), "wb")) {
  if (!f_) fail("cannot open trace file for writing: " + tmp_path_);
}

FileTraceSink::~FileTraceSink() {
  if (!f_) return;
  // Destroyed without close(): the recording was aborted (an exception
  // is unwinding past us, or the caller gave up). Drop the partial
  // temporary instead of publishing a truncated trace.
  std::fclose(f_);
  std::remove(tmp_path_.c_str());
}

void FileTraceSink::on_chunk(const u64* packed, std::size_t n) {
  RW_CHECK(f_, "write to a closed trace file sink");
  if (n != 0 && std::fwrite(packed, sizeof(u64), n, f_) != n)
    fail("short write to trace file: " + path_);
  written_ += n;
}

void FileTraceSink::close() {
  if (!f_) return;
  // Durable publish (support/atomic_file.h): sync the temporary's data
  // before the rename and the directory after it, so a crash right
  // after close() cannot leave an empty or partial recording under the
  // final name — the rename may be durable before the data otherwise.
  try {
    flush_and_sync(f_, "trace file " + tmp_path_);
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    std::remove(tmp_path_.c_str());
    throw;
  }
  int rc = std::fclose(f_);
  f_ = nullptr;
  if (rc != 0) {
    std::remove(tmp_path_.c_str());
    fail("error closing trace file: " + tmp_path_);
  }
  // Publish atomically: rename within the same directory, so readers
  // see either no file or the complete recording, never a prefix.
  publish_file(tmp_path_, path_);
}

}  // namespace rapwam
