// Domain example: AND-parallel divide-and-conquer search using the
// bundled Prolog prelude (par_map, msort, numlist). Finds, for a range
// of board sizes, the first N-queens solution — each board size is an
// independent subproblem, so the sweep runs them in parallel.
//
//   $ ./par_search [--pes 8] [--max-n 7]
#include <cstdio>

#include "engine/machine.h"
#include "harness/library.h"
#include "support/cli.h"

using namespace rapwam;

namespace {

int run(const Cli& cli) {
  unsigned pes = check_machine_pes(cli.get_u32("pes", 8));
  long max_n = cli.get_int("max-n", 7);

  Program prog;
  prog.consult(kPreludeSource);
  prog.consult(R"PL(
    % First solution of N-queens via exhaustive permutation search.
    queens(N, Qs) :- numlist(1, N, Ns), place(Ns, [], Qs).
    place([], Qs, Qs).
    place(Un, Safe, Qs) :-
        select(Q, Un, Un1), \+ attack(Q, Safe), place(Un1, [Q|Safe], Qs).
    attack(X, Xs) :- att(X, 1, Xs).
    att(X, N, [Y|_]) :- X =:= Y + N.
    att(X, N, [Y|_]) :- X =:= Y - N.
    att(X, N, [_|Ys]) :- N1 is N + 1, att(X, N1, Ys).

    % One subproblem: solve size N, pair it with its board.
    solve(N, N-Qs) :- queens(N, Qs), !.

    % The sweep: board sizes are independent => parallel map.
    sweep(Lo, Hi, Results) :-
        numlist(Lo, Hi, Sizes),
        par_map(solve, Sizes, Results).
  )PL");

  MachineConfig cfg;
  cfg.num_pes = pes;
  Machine m(prog, cfg);

  std::string goal = "sweep(4, " + std::to_string(max_n) + ", R).";
  std::printf("solving queens(4..%ld) on %u PEs...\n", max_n, pes);
  RunResult r = m.solve(goal);
  if (!r.success) {
    std::puts("no solutions (unexpected)");
    return 1;
  }
  std::printf("%s\n", r.solutions[0].bindings[0].second.c_str());
  std::printf("\ncycles: %llu, goals stolen: %llu, parcalls: %llu\n",
              static_cast<unsigned long long>(r.stats.cycles),
              static_cast<unsigned long long>(r.stats.goals_stolen),
              static_cast<unsigned long long>(r.stats.parcalls));

  // Compare against a single PE to show the win.
  MachineConfig cfg1 = cfg;
  cfg1.num_pes = 1;
  Program prog1;
  prog1.consult(kPreludeSource);
  // Re-consult the program text (machines own their compiled code).
  Machine m1(prog, cfg1);
  RunResult r1 = m1.solve(goal);
  std::printf("1-PE cycles: %llu  =>  speedup %.2fx\n",
              static_cast<unsigned long long>(r1.stats.cycles),
              static_cast<double>(r1.stats.cycles) /
                  static_cast<double>(r.stats.cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, {"pes", "max-n"}, run); }
