// Simulated data memory with reference instrumentation.
//
// Every read/write goes through MemBus, which tags the reference with
// the issuing PE, the Table-1 object class and the busy flag, updates
// the aggregate counters and, if the configured TraceSink keeps it
// (a busy-only sink keeps only busy references), packs it straight
// into the chunk storage the sink lent it — for a ChunkingSink, the
// trace's own next chunk, so nothing is staged or copied. The bus is
// the one place references are counted and filtered: the sink is
// invoked once per full chunk (plus a final partial one, then once
// with the run's counters), never per reference — the per-reference
// path is fully inlined with no virtual dispatch (docs/DESIGN.md §8).
// `peek`/`poke` bypass instrumentation (post-run inspection, pre-run
// initialisation, and the engine's quiet idle steps, which recognise
// a wait poll or steal probe with a fixed outcome and report its
// references through count_idle() — only while the sink keeps no idle
// references, docs/DESIGN.md §5).
//
// The backing store is one private anonymous mapping, so the kernel
// supplies zero pages as a run first touches them: simulated memory is
// sized for the worst-case workload (hundreds of MB at 8+ PEs) but
// small runs touch a fraction of it. Neither the allocator's memset nor
// a page the run never touches costs anything. AddressSanitizer does not
// instrument the mapping: the engine's per-area limit checks are the
// bound on every simulated address.
#pragma once

#include <sys/mman.h>

#include "engine/cell.h"
#include "engine/layout.h"
#include "trace/memref.h"

namespace rapwam {

class MemBus {
 public:
  explicit MemBus(const Layout& layout)
      : bytes_(layout.total_words() * sizeof(u64)),
        mem_(static_cast<u64*>(mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))) {
    RW_CHECK(mem_ != MAP_FAILED, "simulated memory allocation failed");
  }
  ~MemBus() { munmap(mem_, bytes_); }
  MemBus(const MemBus&) = delete;
  MemBus& operator=(const MemBus&) = delete;

  void set_sink(TraceSink* sink) {
    sink_ = sink;
    if (sink_) chunk_ = sink_->chunk_storage();
  }

  /// Ends the run: hands the last, partial chunk, then the counters
  /// over every reference emitted, to the sink.
  void finish() {
    if (!sink_) return;
    if (chunk_len_ != 0) sink_->commit_chunk(chunk_len_);
    chunk_len_ = 0;
    sink_->on_counts(counts_);
  }

  u64 read(u8 pe, u64 addr, ObjClass cls, bool busy) {
    note(pe, addr, cls, false, busy);
    return mem_[addr];
  }
  void write(u8 pe, u64 addr, u64 cell, ObjClass cls, bool busy) {
    note(pe, addr, cls, true, busy);
    mem_[addr] = cell;
  }

  u64 peek(u64 addr) const { return mem_[addr]; }
  void poke(u64 addr, u64 cell) { mem_[addr] = cell; }

  /// True when the sink keeps idle references, so each one must go
  /// through read()/write() in emission order.
  bool keeps_idle() const { return sink_ && !sink_->busy_only(); }
  /// Counts `n` idle references of one class and direction without
  /// touching memory or the sink; only valid while !keeps_idle().
  void count_idle(u8 pe, ObjClass cls, bool write, u64 n) {
    MemRef r;
    r.pe = pe;
    r.cls = cls;
    r.write = write;
    r.busy = false;
    counts_.add(r, n);
  }

  const RefCounts& counts() const { return counts_; }

 private:
  void note(u8 pe, u64 addr, ObjClass cls, bool write, bool busy) {
    MemRef r;
    r.addr = addr;
    r.pe = pe;
    r.cls = cls;
    r.write = write;
    r.busy = busy;
    counts_.add(r);
    if (sink_ && (busy || !sink_->busy_only())) {
      chunk_[chunk_len_++] = r.pack();
      if (chunk_len_ == kChunkRefs) {
        sink_->commit_chunk(kChunkRefs);
        chunk_ = sink_->chunk_storage();
        chunk_len_ = 0;
      }
    }
  }

  std::size_t bytes_;  ///< mapping length
  u64* mem_;
  RefCounts counts_;
  TraceSink* sink_ = nullptr;
  u64* chunk_ = nullptr;  ///< the sink's storage for the chunk being filled
  std::size_t chunk_len_ = 0;
};

}  // namespace rapwam
