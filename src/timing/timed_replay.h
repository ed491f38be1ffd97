// Cycle-approximate timed trace replay (docs/DESIGN.md §7).
//
// The paper stops at traffic ratios; Tick's queueing model (our
// cache/queueing.h) predicts contention analytically. This subsystem
// *measures* it instead: it replays the same global-order reference
// trace through MultiCacheSim's one replay loop (with or without an
// L2) and, as that loop's per-reference observer, layers virtual time
// on top of each reference's StepOutcome — one clock per PE, a single
// shared bus kept as a timeline of busy intervals (a word-granularity
// transaction is granted the earliest free gap at/after its request
// time; requests for the same instant are granted in global trace
// order, which is the emulator's round-robin issue order — i.e.
// round-robin arbitration), n-way interleaved memory, and an optional
// per-PE posted write buffer.
//
// Because the coherence engine is driven in exact trace order, the
// TrafficStats a TimedReplay produces are bit-identical to an untimed
// MultiCacheSim::replay() of the same trace for any timing parameters;
// the differential suite (tests/test_timing_diff.cpp) pins this, and
// tests/test_timing_oracle.cpp checks the whole TimingStats against a
// naive re-implementation.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "cache/hierarchy.h"

namespace rapwam {

struct TimingParams {
  /// PE issue cost per data reference, in cycles (the "1 compute
  /// cycle" of the analytic model).
  u32 cycles_per_ref = 1;
  /// Bus + memory cycles per word moved, before interleaving.
  /// 0 models an infinitely fast bus: no occupancy, no transfer
  /// stalls (the per-fill extras below still apply — they model the
  /// device behind the bus, not the bus).
  u32 bus_service_cycles = 1;
  /// Memory banks overlapping word transfers: an L-word transaction
  /// occupies the bus ceil(L * bus_service_cycles / interleave)
  /// cycles (the paper's §3.3 "multiple or overlapped busses and
  /// interleaved memories").
  u32 interleave = 1;
  /// Posted-write entries per PE. A write the PE need not wait for
  /// (write-through word, update/invalidation broadcast) is buffered
  /// and drained by the bus in the background; the PE stalls only when
  /// the buffer is full, or on its next demand miss (which drains the
  /// buffer first, preserving memory order). 0 = writes block.
  u32 write_buffer_depth = 0;
  /// Extra PE wait cycles on a demand fill that goes all the way to
  /// memory (an L2 miss, or every memory fill in the flat model). The
  /// L2-hit counterpart lives in L2Config::hit_extra_cycles — together
  /// they give the hierarchy its distinct L1-hit (cycles_per_ref
  /// only) / L2-hit / memory latencies. The extra cycles delay the PE,
  /// not the bus (the bus is released after the word transfer), and do
  /// not apply to posted writes or cache-to-cache supplies. Default 0:
  /// memory latency folded into bus_service_cycles, as the paper's
  /// model has it.
  u32 mem_extra_cycles = 0;

  /// Idealised bus: every transaction takes zero time. A TimedReplay
  /// with these parameters must behave exactly like the untimed
  /// simulator (same TrafficStats; zero stalls as long as the cache
  /// config charges no L2 hit latency either).
  static TimingParams zero_cost() { return TimingParams{1, 0, 1, 0}; }

  /// Effective service time per word in PE cycles, as the analytic
  /// bus_contention() model expresses it (service_cycles/interleave).
  double effective_service() const {
    return interleave ? static_cast<double>(bus_service_cycles) / interleave : 0.0;
  }

  friend bool operator==(const TimingParams&, const TimingParams&) = default;
};

struct PeTiming {
  u64 refs = 0;
  u64 busy_cycles = 0;   ///< issue cycles spent doing useful work
  u64 stall_cycles = 0;  ///< cycles waiting on the bus / write buffer
  u64 clock = 0;         ///< virtual time the PE finished its last ref
};

struct TimingStats {
  std::vector<PeTiming> pe;
  u64 makespan = 0;           ///< virtual cycles until everything retired
  u64 bus_busy_cycles = 0;    ///< cycles the bus was occupied
  u64 bus_transactions = 0;
  /// Demand fills by supplier: another PE's cache, the shared L2
  /// (hierarchy only), or memory. cache_fills + l2_fills + mem_fills
  /// is the total number of demand transactions.
  u64 cache_fills = 0;
  u64 l2_fills = 0;
  u64 mem_fills = 0;

  u64 total_busy() const {
    u64 s = 0;
    for (const PeTiming& p : pe) s += p.busy_cycles;
    return s;
  }
  u64 total_stall() const {
    u64 s = 0;
    for (const PeTiming& p : pe) s += p.stall_cycles;
    return s;
  }
  /// Fraction of virtual time the bus was busy; <= 1 by construction
  /// (transactions never overlap).
  double bus_utilization() const {
    return makespan ? static_cast<double>(bus_busy_cycles) /
                          static_cast<double>(makespan)
                    : 0.0;
  }
  /// Achieved aggregate speedup: useful work per virtual cycle. With
  /// cycles_per_ref=1 this is refs/makespan — directly comparable to
  /// the analytic model's aggregate_speedup.
  double speedup() const {
    return makespan ? static_cast<double>(total_busy()) /
                          static_cast<double>(makespan)
                    : 0.0;
  }
  /// speedup / PEs: the measured counterpart of pe_efficiency.
  double efficiency() const {
    return pe.empty() ? 0.0 : speedup() / static_cast<double>(pe.size());
  }
  bool saturated(double threshold = 0.95) const {
    return bus_utilization() >= threshold;
  }
};

/// Smallest PE count in a (pes, stats) sweep whose run saturates the
/// bus; 0 if none does.
unsigned saturation_pe_count(
    const std::vector<std::pair<unsigned, TimingStats>>& runs,
    double threshold = 0.95);

class TimedReplay {
 public:
  /// `rep` selects the sharing-directory representation and is passed
  /// through to the coherence engine (the timing layer itself is
  /// representation-agnostic; the differential suite forces Wide here
  /// to pin timed wide-directory replays against flat ones).
  TimedReplay(const CacheConfig& cfg, unsigned num_pes, const TimingParams& tp,
              DirRep rep = DirRep::Auto);

  void replay(const u64* packed, std::size_t n);
  void replay(const std::vector<u64>& packed) { replay(packed.data(), packed.size()); }
  /// Replays shared immutable chunk storage in place (no flattening).
  void replay(const ChunkedTrace& t) {
    t.for_each_chunk([this](const u64* p, std::size_t n) { replay(p, n); });
  }

  /// Coherence-side results: identical to an untimed replay.
  const TrafficStats& traffic() const { return sim_.stats(); }
  const MultiCacheSim& sim() const { return sim_; }
  const TimingParams& params() const { return tp_; }

  /// Timing results; computes the makespan over per-PE clocks and any
  /// posted writes still draining. Callable repeatedly.
  TimingStats timing() const;

  /// Checkpoint serialization (docs/DESIGN.md §12): the coherence
  /// engine's state plus the complete timing state — per-PE clocks and
  /// posted-write completion times, accumulated per-PE timing
  /// counters, the coalesced bus timeline, and the prune counter (it
  /// decides *when* the timeline is compacted; compaction is
  /// behaviour-neutral, but capturing the counter keeps the restored
  /// run's internal trajectory byte-for-byte identical, not just its
  /// results). Restore into a freshly constructed TimedReplay of the
  /// same configuration and parameters; throws Error on malformed
  /// input (unordered/overlapping timeline intervals, non-monotonic
  /// write-buffer entries, count mismatches).
  void save_state(ByteWriter& w) const;
  void restore_state(ByteReader& r);

 private:
  struct PeState {
    u64 clock = 0;
    std::deque<u64> wbuf;  ///< bus completion times of in-flight posted writes
  };

  /// The replay loop's observer: advances PE r.pe's clock, the bus and
  /// the write buffer by what reference `r` did (docs/DESIGN.md §7).
  void advance(const MemRef& r, const StepOutcome& o);
  /// Bus cycles an n-word transaction occupies.
  u64 service_of(u64 words) const {
    return (words * tp_.bus_service_cycles + tp_.interleave - 1) / tp_.interleave;
  }
  /// Books `svc` bus cycles into the earliest free gap at/after
  /// `ready`; returns the completion time. Same-instant contention is
  /// resolved in trace order (round-robin issue order).
  u64 bus_reserve(u64 ready, u64 svc);
  /// Drops busy intervals no future request can reach (all PEs' clocks
  /// are already past them), bounding the timeline's size.
  void prune_timeline();

  MultiCacheSim sim_;
  TimingParams tp_;
  u32 l2_extra_ = 0;  ///< cfg.l2.hit_extra_cycles, cached
  std::vector<PeState> pes_;
  TimingStats ts_;
  /// Bus timeline: disjoint, coalesced busy intervals start -> end.
  std::map<u64, u64> busy_;
  u64 reservations_since_prune_ = 0;
};

}  // namespace rapwam
