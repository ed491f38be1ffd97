// Regenerates Table 2: Statistics for the Benchmarks Used (8
// processors): instructions executed, references (RAP-WAM and WAM),
// goals actually run in parallel.
//
//   --scale small|paper   workload size (default paper)
//   --pes N               PE count, 1..256 (default 8)
//   --csv                 print the table as CSV
#include <cstdio>

#include "engine/machine.h"
#include "harness/reports.h"
#include "support/cli.h"

namespace {

int run(const rapwam::Cli& cli) {
  rapwam::ReportOptions opt;
  opt.scale = rapwam::scale_from_name(cli.get("scale", "paper"));
  opt.table2_pes = rapwam::check_machine_pes(cli.get_u32("pes", 8));
  rapwam::TextTable t = rapwam::table2_report(opt);
  std::fputs(cli.has("csv") ? t.csv().c_str() : t.str().c_str(), stdout);
  std::puts(
      "\nPaper (8 PEs):          deriv    tak      qsort    matrix\n"
      "  Instructions executed 33520    75254    237884   95349\n"
      "  References (RAP-WAM)  85477    178967   502717   96013\n"
      "  References (WAM)      82519    169599   499526   95357\n"
      "  Goals actually in //  97       263      97       24");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rapwam::cli_main(argc, argv, {"scale", "pes", rapwam::Flag::boolean("csv")}, run);
}
