// Benchmark execution helpers: run a program on the RAP-WAM emulator
// (optionally streaming its references into a TraceSink) and on the
// sequential-WAM baseline.
#pragma once

#include "engine/machine.h"
#include "harness/programs.h"

namespace rapwam {

/// Area sizes big enough for the Paper-scale workloads.
AreaSizes bench_area_sizes();

/// Runs `bp` on `pes` PEs without a trace. `max_solutions` > 1
/// exhausts backtracking (used by the all-solutions large benchmarks).
RunResult run_parallel(const BenchProgram& bp, unsigned pes,
                       unsigned max_solutions = 1);

/// Runs `bp` compiled as plain sequential WAM (annotations stripped).
RunResult run_wam(const BenchProgram& bp, unsigned max_solutions = 1);

/// Runs `bp` streaming every reference into `sink` at chunk
/// granularity — nothing is materialized here. The caller picks the
/// consumer: ChunkingSink (shared storage) or FileTraceSink (archive);
/// the counters are always in the result's RunStats::refs.
/// `strip` compiles the sequential-WAM baseline, as run_wam does.
/// `limits` / `faults` / `cancel` thread the engine governance knobs
/// through: resource budgets throw ResourceExhaustedError, a cancelled
/// or expired token throws CancelledError mid-generation. Defaults are
/// the ungoverned run (bit-identical to the pre-governance engine).
RunResult run_into(const BenchProgram& bp, unsigned pes, bool strip,
                   TraceSink* sink, unsigned max_solutions = 1,
                   const ResourceLimits& limits = {},
                   const EngineFaults& faults = {},
                   const CancelToken* cancel = nullptr);

}  // namespace rapwam
