// Regenerates Figure 2: RAP-WAM work and overhead for "deriv" as a
// function of the number of processors, as percentages of the work of
// the plain sequential WAM running the un-annotated program.
//
//   --scale small|paper   workload size (default paper)
//   --csv                 print the table as CSV
#include <cstdio>

#include "harness/reports.h"
#include "support/cli.h"

namespace {

int run(const rapwam::Cli& cli) {
  rapwam::ReportOptions opt;
  opt.scale = rapwam::scale_from_name(cli.get("scale", "paper"));
  rapwam::TextTable t = rapwam::fig2_report(opt);
  std::fputs(cli.has("csv") ? t.csv().c_str() : t.str().c_str(), stdout);
  std::puts(
      "\nPaper: work stays essentially flat as PEs grow (overhead ~15% up\n"
      "to 40 PEs); RAP-WAM work on 1 PE is very close to WAM work. Our\n"
      "emulator reproduces the flat shape and the scalable speedup; the\n"
      "absolute overhead is higher because every scheduler word (parcall\n"
      "frames, goal stack, markers, locks) is traced — see EXPERIMENTS.md.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rapwam::cli_main(argc, argv, {"scale", rapwam::Flag::boolean("csv")}, run);
}
