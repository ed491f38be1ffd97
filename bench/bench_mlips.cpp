// Regenerates the paper's §3.3 back-of-the-envelope: the bus bandwidth
// a 2-MLIPS shared-memory machine would need, computed from *measured*
// instructions/inference, references/instruction and cache capture
// rate instead of the paper's round numbers. Host-speed numbers come
// from pipebench (python3 pipebench/run.py --workload W --trace 1).
//
//   --scale small|paper   workload size (default paper)
#include <cstdio>

#include "harness/reports.h"
#include "support/cli.h"

namespace {

int run(const rapwam::Cli& cli) {
  rapwam::ReportOptions opt;
  opt.scale = rapwam::scale_from_name(cli.get("scale", "paper"));
  std::fputs(rapwam::mlips_report(opt).str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rapwam::cli_main(argc, argv, {"scale"}, run);
}
