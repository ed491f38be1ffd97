// The paper's motivating workload: symbolic differentiation with
// AND-parallel recursion. Runs `deriv` over a generated expression on
// 1..N simulated PEs and prints the work/speedup series (a miniature
// Figure 2).
//
//   $ ./parallel_deriv [--nodes 400] [--max-pes 16]
#include <cstdio>

#include "harness/runner.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"

using namespace rapwam;

namespace {

int run(const Cli& cli) {
  int nodes = static_cast<int>(cli.get_int("nodes", 400));
  unsigned max_pes = check_machine_pes(cli.get_u32("max-pes", 16));

  std::string src = bench_program("deriv", BenchScale::Small).source;
  BenchProgram bp{"deriv", src, "d(" + gen_deriv_expr(nodes, 42) + ",x,D)"};

  RunResult wam = run_wam(bp);
  double wam_work = static_cast<double>(wam.stats.work_refs());
  double wam_cycles = static_cast<double>(wam.stats.cycles);
  std::printf("deriv over %d operators; plain WAM: %llu work refs, %llu cycles\n\n",
              nodes, static_cast<unsigned long long>(wam.stats.work_refs()),
              static_cast<unsigned long long>(wam.stats.cycles));

  TextTable t;
  t.header({"PEs", "work (% of WAM)", "speedup", "goals stolen"});
  for (unsigned pes = 1; pes <= max_pes; pes *= 2) {
    const RunStats s = run_parallel(bp, pes).stats;
    t.row({std::to_string(pes),
           fmt_pct(static_cast<double>(s.work_refs()) / wam_work, 1),
           fmt(wam_cycles / static_cast<double>(s.cycles), 2),
           std::to_string(s.goals_stolen)});
  }
  std::fputs(t.str().c_str(), stdout);
  std::puts("\nNote how total work stays flat while cycles drop: the paper's");
  std::puts("claim that AND-parallelism adds bounded overhead regardless of");
  std::puts("the PE count.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main(argc, argv, {"nodes", "max-pes"}, run);
}
