// Regenerates Table 1 of the paper: Characteristics of RAP-WAM
// Storage Objects. The rows are the same machine-readable data the
// emulator uses to tag every memory reference, so this table is, by
// construction, what the hybrid cache protocol consumes. Takes no
// flags.
#include <cstdio>

#include "harness/reports.h"
#include "support/cli.h"

namespace {

int run(const rapwam::Cli&) {
  rapwam::TextTable t = rapwam::table1_report();
  std::fputs(t.str().c_str(), stdout);
  std::puts("\nPaper: identical rows (architectural table).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return rapwam::cli_main(argc, argv, {}, run); }
