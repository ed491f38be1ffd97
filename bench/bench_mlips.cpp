// Regenerates the paper's §3.3 back-of-the-envelope: the bus bandwidth
// a 2-MLIPS shared-memory machine would need, computed from *measured*
// instructions/inference, references/instruction and cache capture
// rate instead of the paper's round numbers. Host-speed numbers come
// from pipebench (python3 pipebench/run.py --workload W --trace 1).
//
//   --scale small|paper   workload size (default paper)
//   --profile-ops         dump the dynamic (op, next-op) pair ranking
//                         over the four paper benchmarks (the profile
//                         the fused opcode set is derived from,
//                         docs/DESIGN.md §13) and exit
//   --fuse-smoke          run the four paper benchmarks at 1 PE with
//                         fusion on and off, print the golden stats for
//                         both, and exit non-zero if any differ (CI)
#include <algorithm>
#include <cstdio>
#include <map>

#include "compiler/instr.h"
#include "harness/reports.h"
#include "harness/runner.h"
#include "support/cli.h"

namespace {

using namespace rapwam;

/// Runs the four paper benchmarks at 1 PE with the pair profiler on
/// (fusion off, so the ranking is over the raw opcode stream) and
/// prints the merged ranking. This is how the Fuse* opcode set in
/// compiler/instr.h was derived; re-run it when benchmarks change.
void profile_ops(BenchScale scale) {
  std::map<std::pair<Op, Op>, u64> merged;
  u64 total_pairs = 0, total_instr = 0;
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    BenchProgram bp = bench_program(name, scale);
    Program prog;
    prog.consult(bp.source);
    MachineConfig cfg;
    cfg.num_pes = 1;
    cfg.sizes = bench_area_sizes();
    cfg.fuse = false;
    cfg.profile_ops = true;
    Machine m(prog, cfg);
    RunResult r = m.solve(bp.goal + ".");
    total_instr += r.stats.instructions;
    for (const Machine::OpPair& p : m.op_pair_profile()) {
      merged[{p.first, p.second}] += p.count;
      total_pairs += p.count;
    }
  }
  std::vector<std::pair<std::pair<Op, Op>, u64>> rank(merged.begin(), merged.end());
  std::sort(rank.begin(), rank.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("dynamic contiguous (op, next-op) pairs over qsort+deriv+matrix+tak"
              " (1 PE, %llu instr, %llu pairs):\n",
              static_cast<unsigned long long>(total_instr),
              static_cast<unsigned long long>(total_pairs));
  std::printf("%-24s %-24s %12s %7s\n", "op", "next-op", "count", "share");
  for (std::size_t i = 0; i < rank.size() && i < 40; ++i) {
    std::printf("%-24s %-24s %12llu %6.2f%%\n", op_name(rank[i].first.first),
                op_name(rank[i].first.second),
                static_cast<unsigned long long>(rank[i].second),
                100.0 * static_cast<double>(rank[i].second) /
                    static_cast<double>(total_pairs));
  }
}

/// CI smoke: run every paper benchmark at 1 PE with fusion on and off
/// and print the golden stats for both sides. Any divergence —
/// instructions, cycles, reference counts, solutions, output — is a
/// fusion bug; returns non-zero so CI fails the step.
int fuse_smoke(BenchScale scale) {
  int bad = 0;
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    BenchProgram bp = bench_program(name, scale);
    Program prog;
    prog.consult(bp.source);
    RunResult r[2];
    for (int fuse = 0; fuse < 2; ++fuse) {
      MachineConfig cfg;
      cfg.num_pes = 1;
      cfg.sizes = bench_area_sizes();
      cfg.fuse = fuse != 0;
      Machine m(prog, cfg);
      r[fuse] = m.solve(bp.goal + ".");
    }
    for (int fuse = 0; fuse < 2; ++fuse)
      std::printf("%-8s %-8s instr=%llu cycles=%llu reads=%llu writes=%llu "
                  "solutions=%zu\n",
                  name, fuse ? "fused" : "unfused",
                  static_cast<unsigned long long>(r[fuse].stats.instructions),
                  static_cast<unsigned long long>(r[fuse].stats.cycles),
                  static_cast<unsigned long long>(r[fuse].stats.refs.reads),
                  static_cast<unsigned long long>(r[fuse].stats.refs.writes),
                  r[fuse].solutions.size());
    bool same = r[0].stats == r[1].stats && r[0].solutions == r[1].solutions &&
                r[0].output == r[1].output;
    if (!same) {
      std::printf("%-8s FUSED/UNFUSED GOLDEN STATS DIVERGE\n", name);
      bad = 1;
    }
  }
  std::puts(bad ? "fuse-smoke: FAIL" : "fuse-smoke: OK (fused == unfused)");
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  rapwam::Cli cli(argc, argv);
  rapwam::ReportOptions opt;
  opt.scale = cli.get("scale", "paper") == "small" ? rapwam::BenchScale::Small
                                                   : rapwam::BenchScale::Paper;
  if (cli.has("profile-ops")) {
    profile_ops(opt.scale);
    return 0;
  }
  if (cli.has("fuse-smoke")) return fuse_smoke(opt.scale);
  std::fputs(rapwam::mlips_report(opt).str().c_str(), stdout);
  return 0;
}
