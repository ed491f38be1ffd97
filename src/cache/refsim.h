// Reference (naive broadcast-snoop) multiprocessor cache simulator.
//
// This is the pre-directory implementation of MultiCacheSim, retained
// verbatim as an executable specification: every snoop query walks all
// other PEs' caches (O(num_PEs) probes per reference) and every
// reference pays the per-protocol dispatch in access(). It exists so
// that
//   * the differential test suite can replay randomized traces through
//     both simulators and assert bit-identical TrafficStats, and
//   * pipebench's sweep workload can check a seeded sample of its
//     points against the broadcast baseline.
// Keep its protocol logic in lockstep with docs/DESIGN.md §3; it is
// deliberately not optimised.
#pragma once

#include <vector>

#include "cache/multisim.h"

namespace rapwam {

class ReferenceCacheSim {
 public:
  ReferenceCacheSim(const CacheConfig& cfg, unsigned num_pes);

  void access(const MemRef& r);
  void replay(const std::vector<u64>& packed) {
    for (u64 p : packed) access(MemRef::unpack(p));
  }

  const TrafficStats& stats() const { return stats_; }
  const Cache& cache(unsigned pe) const { return caches_[pe]; }
  unsigned num_caches() const { return static_cast<unsigned>(caches_.size()); }
  bool invariants_ok() const;

 private:
  u64 tag_of(u64 addr) const { return addr / cfg_.line_words; }
  u64 L() const { return cfg_.line_words; }
  bool others_hold(unsigned pe, u64 tag) const;
  int dirty_holder(unsigned pe, u64 tag) const;  // -1 if none
  void invalidate_others(unsigned pe, u64 tag);
  void demote_exclusive_others(unsigned pe, u64 tag);
  void fill(unsigned pe, u64 tag, LineState st);

  void access_write_through(const MemRef& r);
  void access_copyback(const MemRef& r);
  void access_write_in_broadcast(const MemRef& r);
  void access_write_update_broadcast(const MemRef& r);
  void access_hybrid(const MemRef& r);

  CacheConfig cfg_;
  std::vector<Cache> caches_;
  TrafficStats stats_;
};

}  // namespace rapwam
