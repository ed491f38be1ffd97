#include "harness/runner.h"

namespace rapwam {

AreaSizes bench_area_sizes() {
  AreaSizes s;
  s.heap = u64(1) << 21;
  s.local = u64(1) << 18;
  s.control = u64(1) << 19;
  s.trail = u64(1) << 18;
  s.pdl = u64(1) << 13;
  s.goal = u64(1) << 13;
  s.msg = u64(1) << 10;
  return s;
}

RunResult run_into(const BenchProgram& bp, unsigned pes, bool strip,
                   TraceSink* sink, unsigned max_solutions,
                   const ResourceLimits& limits, const EngineFaults& faults,
                   const CancelToken* cancel) {
  Program prog;
  prog.consult(bp.source);
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.sizes = bench_area_sizes();
  cfg.strip_cge = strip;
  cfg.max_solutions = max_solutions;
  cfg.limits = limits;
  cfg.faults = faults;
  Machine m(prog, cfg);
  RunResult res = m.solve(bp.goal + ".", sink, cancel);
  if (!res.success)
    fail("benchmark '" + bp.name + "' found no solution — broken program?");
  return res;
}

RunResult run_parallel(const BenchProgram& bp, unsigned pes,
                       unsigned max_solutions) {
  return run_into(bp, pes, /*strip=*/false, /*sink=*/nullptr, max_solutions);
}

RunResult run_wam(const BenchProgram& bp, unsigned max_solutions) {
  return run_into(bp, 1, /*strip=*/true, /*sink=*/nullptr, max_solutions);
}

}  // namespace rapwam
