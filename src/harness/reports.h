// Report generators: one function per table/figure of the paper.
// Each returns TextTables so the bench binaries, tests and examples
// share the exact same measurement code.
#pragma once

#include "cache/sweep.h"
#include "harness/runner.h"
#include "support/table.h"
#include "timing/timed_replay.h"

namespace rapwam {

struct ReportOptions {
  BenchScale scale = BenchScale::Paper;
  unsigned table2_pes = 8;
  std::vector<unsigned> fig2_pes = {1, 2, 4, 6, 8, 12, 16, 24, 32, 40};
  std::vector<unsigned> fig4_pes = {1, 2, 4, 8};
  std::vector<u32> fig4_sizes = {64, 128, 256, 512, 1024, 2048, 4096, 8192};
  std::vector<u32> table3_sizes = {512, 1024};
  unsigned pool_threads = 0;  ///< 0 = hardware concurrency
  /// Timed-replay report: PE counts and the bus being modelled. The
  /// default (1 cycle/word, 2-way interleave, 4-deep write buffers)
  /// matches the analytic model's s=0.5 "fast interleaved bus".
  std::vector<unsigned> timing_pes = {1, 2, 4, 8, 16};
  TimingParams timing = {1, 1, 2, 4};
  /// L2 sweep (l2_report): shared-L2 sizes layered under the paper's
  /// standard point (1024-word write-in-broadcast L1s), both inclusion
  /// policies, mean over the four benchmarks at `l2_pes` PEs. The
  /// default sizes start at the total L1 capacity of 8 PEs (8K words);
  /// expect back-invalidation to decline with size but stay nonzero
  /// until the L2 holds the whole working set — inclusion victims are
  /// picked by L2 LRU, which sees only L1 misses, so L1-hot lines get
  /// evicted even from an L2 several times the L1s' total size.
  std::vector<u32> l2_sizes = {8192, 16384, 32768, 65536};
  u32 l2_ways = 8;
  unsigned l2_pes = 8;
};

/// Table 1: characteristics of RAP-WAM storage objects (architectural;
/// printed from the same data the emulator tags references with).
TextTable table1_report();

/// Table 2: instructions, references (RAP-WAM and WAM), goals actually
/// executed in parallel, for the four benchmarks on `table2_pes` PEs.
TextTable table2_report(const ReportOptions& opt);

/// Figure 2: RAP-WAM work as % of WAM work, and speedup, for deriv
/// across PE counts.
TextTable fig2_report(const ReportOptions& opt);

/// Figure 4: mean traffic ratio (over the four benchmarks) vs cache
/// size, per PE count — one table per protocol panel
/// (write-in broadcast, hybrid, conventional write-through).
std::vector<TextTable> fig4_report(const ReportOptions& opt);

/// L2 hierarchy sweep (the dimension the paper's flat model stops
/// short of): for each L2 size in `opt.l2_sizes`, mean bus-traffic
/// ratio, memory-traffic ratio (what the L2 failed to capture), L2
/// miss ratio and back-invalidation rate, for inclusive and
/// non-inclusive policies, next to the flat no-L2 baseline
/// (docs/DESIGN.md §9).
TextTable l2_report(const ReportOptions& opt);

/// Table 3: fit of the small benchmarks to the large sequential suite
/// (copyback traffic ratios at 512/1024 words; z-scores).
TextTable table3_report(const ReportOptions& opt);

/// The measured quantities behind mlips_report, exposed so the bench
/// binary can archive them alongside host-side engine throughput
/// (BENCH_engine.json).
struct MlipsNumbers {
  double instr_per_inference = 0;
  double refs_per_instr = 0;
  double bytes_per_inference = 0;
  double demand_mb_per_sec = 0;  ///< bytes demanded per second at 2 MLIPS
  double traffic_ratio = 0;      ///< 8 PE, 1024-word write-in broadcast
  double bus_mb_per_sec = 0;     ///< demand bandwidth after cache capture
};
MlipsNumbers mlips_numbers(const ReportOptions& opt);

/// §3.3: the 2-MLIPS bandwidth estimate recomputed from measured
/// instruction/reference/traffic numbers. The MlipsNumbers overload
/// lets a caller that also archives the numbers measure them once.
TextTable mlips_report(const ReportOptions& opt);
TextTable mlips_report(const MlipsNumbers& m);

/// Timed replay vs. the analytic M/D/1 model: for each of the four
/// paper benchmarks, measured speedup / efficiency / bus utilization
/// from TimedReplay next to the bus_contention() prediction at the
/// same traffic ratio and effective service time, across
/// `opt.timing_pes` (write-in broadcast, 1024-word caches), with the
/// measured saturation PE count as a footer row.
std::vector<TextTable> timing_report(const ReportOptions& opt);

}  // namespace rapwam
