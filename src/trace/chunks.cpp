#include "trace/chunks.h"

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
    : busy_only_(busy_only), trace_(std::make_shared<ChunkedTrace>()) {}

void ChunkingSink::on_chunk(const u64* packed, std::size_t n) {
  std::vector<std::vector<u64>>& chunks = trace_->chunks_;
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r = MemRef::unpack(packed[i]);
    trace_->counts_.add(r);
    if (busy_only_ && !r.busy) continue;
    if (chunks.empty() || chunks.back().size() == kChunkRefs) {
      chunks.emplace_back();
      chunks.back().reserve(kChunkRefs);
    }
    chunks.back().push_back(packed[i]);
    ++trace_->size_;
  }
}

std::shared_ptr<const ChunkedTrace> ChunkingSink::take() {
  std::shared_ptr<const ChunkedTrace> out = std::move(trace_);
  trace_ = std::make_shared<ChunkedTrace>();
  return out;
}

std::shared_ptr<const ChunkedTrace> load_chunked_trace(const std::string& path,
                                                       bool busy_only) {
  std::vector<u64> packed = load_trace(path);  // rejects sizes not 8-aligned
  for (std::size_t i = 0; i < packed.size(); ++i) {
    if (!packed_ref_valid(packed[i]))
      fail("trace file " + path + ": corrupted record at index " +
           std::to_string(i));
  }
  ChunkingSink sink(busy_only);
  if (!packed.empty()) sink.on_chunk(packed.data(), packed.size());
  return sink.take();
}

// --- FileTraceSink --------------------------------------------------------

FileTraceSink::FileTraceSink(const std::string& path, bool busy_only)
    : path_(path),
      tmp_path_(path + ".tmp"),
      f_(std::fopen(tmp_path_.c_str(), "wb")),
      busy_only_(busy_only) {
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
  // Filter into a small staging buffer so each chunk is one fwrite.
  std::vector<u64> keep;
  keep.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r = MemRef::unpack(packed[i]);
    counts_.add(r);
    if (!busy_only_ || r.busy) keep.push_back(packed[i]);
  }
  if (!keep.empty() &&
      std::fwrite(keep.data(), sizeof(u64), keep.size(), f_) != keep.size())
    fail("short write to trace file: " + path_);
  written_ += keep.size();
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
