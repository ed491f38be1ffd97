// Interactive RAP-WAM Prolog top level.
//
//   $ ./repl [--pes 4] [file.pl]
//
// Enter clauses to assert them, or `?- Goal.` to run a query.
// `halt.` exits. Parallel conjunctions (`&`) and CGEs are supported.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/machine.h"
#include "support/cli.h"

using namespace rapwam;

namespace {

int run(const Cli& cli) {
  unsigned pes = check_machine_pes(cli.get_u32("pes", 4));

  Program prog;
  prog.consult("'$repl_init'.");  // ensure at least one predicate exists
  for (const std::string& path : cli.positional()) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    try {
      prog.consult(ss.str());
      std::printf("%% consulted %s\n", path.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.max_solutions = 10;

  std::printf("RAP-WAM Prolog (%u PEs). `?- goal.` queries, clauses assert, "
              "`halt.` quits.\n", pes);
  std::string line;
  for (;;) {
    std::printf("| ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "halt." || line == "halt") break;
    try {
      if (line.rfind("?-", 0) == 0) {
        std::string goal = line.substr(2);
        Machine m(prog, cfg);
        RunResult r = m.solve(goal);
        if (!r.output.empty()) std::fputs(r.output.c_str(), stdout);
        if (!r.success) {
          std::puts("no.");
          continue;
        }
        std::size_t n = 0;
        for (const Solution& s : r.solutions) {
          if (s.bindings.empty()) {
            std::puts("yes.");
            break;
          }
          std::printf("solution %zu:", ++n);
          for (auto& [name, value] : s.bindings)
            std::printf(" %s = %s", name.c_str(), value.c_str());
          std::puts("");
        }
        if (r.solutions.size() >= cfg.max_solutions)
          std::puts("% (solution limit reached)");
      } else {
        prog.consult(line);
        std::puts("% asserted.");
      }
    } catch (const Error& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, {"pes"}, run); }
