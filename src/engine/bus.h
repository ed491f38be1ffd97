// Simulated data memory with reference instrumentation.
//
// Every read/write goes through MemBus, which tags the reference with
// the issuing PE, the Table-1 object class and the busy flag, updates
// the aggregate counters and, if the configured TraceSink keeps it
// (a busy-only sink keeps only busy references), appends the packed
// reference to a fixed-size chunk. The bus is the one place references
// are counted and filtered: the sink is invoked once per full chunk
// (plus a final flush, then once with the run's counters), never per
// reference — the per-reference path is fully inlined with no virtual
// dispatch (docs/DESIGN.md §8).
// `peek`/`poke` bypass instrumentation (used for post-run inspection
// and pre-run initialisation only — never from instruction execution).
//
// The backing store is calloc'ed, not value-initialised: simulated
// memory is sized for the worst-case workload (hundreds of MB at 8+
// PEs) but small runs touch a fraction of it, and the kernel's
// zero-page mapping makes untouched pages free. Eagerly memsetting the
// whole arena used to dominate small-workload wall time.
#pragma once

#include <cstdlib>
#include <memory>

#include "engine/cell.h"
#include "engine/layout.h"
#include "trace/memref.h"

namespace rapwam {

class MemBus {
 public:
  explicit MemBus(const Layout& layout)
      : layout_(layout),
        mem_(static_cast<u64*>(std::calloc(layout.total_words(), sizeof(u64)))) {
    RW_CHECK(mem_ != nullptr, "simulated memory allocation failed");
  }

  void set_sink(TraceSink* sink) {
    sink_ = sink;
    if (sink_ && !chunk_) chunk_ = std::make_unique<u64[]>(kChunkRefs);
  }

  /// Ends the run: hands the buffered references, then the counters
  /// over every reference emitted, to the sink.
  void finish() {
    if (!sink_) return;
    if (chunk_len_ != 0) sink_->on_chunk(chunk_.get(), chunk_len_);
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

  const RefCounts& counts() const { return counts_; }
  const Layout& layout() const { return layout_; }

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
        sink_->on_chunk(chunk_.get(), kChunkRefs);
        chunk_len_ = 0;
      }
    }
  }

  struct FreeDeleter {
    void operator()(u64* p) const { std::free(p); }
  };

  const Layout& layout_;
  std::unique_ptr<u64[], FreeDeleter> mem_;
  RefCounts counts_;
  TraceSink* sink_ = nullptr;
  std::unique_ptr<u64[]> chunk_;
  std::size_t chunk_len_ = 0;
};

}  // namespace rapwam
