// The parallel property-test programs, shared by the agreement suite
// (test_parallel_props.cpp) and the quiet-idle-step differential
// (test_pipeline_diff.cpp): parcalls that succeed, fail early or late,
// kill running siblings and leave cancelled goal-stack frames behind.
#pragma once

#include <sstream>
#include <string>

namespace rapwam {

/// A small program family parameterized by a seed: two independent
/// tree walks run in parallel; nodes fail where seed bits say so, and
/// a final arithmetic check relates the two results. This exercises
/// parcalls that succeed, fail early, fail late, and cancel siblings.
/// Goals: `pair(A, B).` and `gated(A).`.
inline std::string make_prop_program(unsigned seed) {
  std::ostringstream os;
  // walk(Depth, Mode, Sum): Mode selects which branch fails.
  os << "walk(0, M, M).\n";
  os << "walk(N, M, S) :- N > 0, N1 is N - 1, pick(N, M, V), walk(N1, M, S1), "
        "S is S1 + V.\n";
  for (int n = 1; n <= 6; ++n) {
    // pick succeeds with value depending on the seed; for some (n, m)
    // combinations it fails on first clause and succeeds on retry.
    if ((seed >> n) & 1) {
      os << "pick(" << n << ", M, V) :- M > 1, V is " << n << " * M.\n";
      os << "pick(" << n << ", M, V) :- M =< 1, V = " << n << ".\n";
    } else {
      os << "pick(" << n << ", _, " << n << ").\n";
    }
  }
  os << "pair(A, B) :- walk(6, 1, A) & walk(6, 2, B).\n";
  // The goals of a CGE must be independent: gate/1 ignores its
  // argument (it only delimits the answer) and does its own walk,
  // failing for odd sums -- which kills the (possibly still running)
  // sibling, exercising the inside-failure protocol.
  os << "gated(A) :- walk(6, 1, A) & gate(_).\n";
  os << "gate(_) :- walk(6, 2, Y), 0 =:= Y mod 2.\n";
  return os.str();
}

/// The seeds the suites draw make_prop_program() from.
inline constexpr unsigned kPropSeeds[] = {0, 1, 5, 10, 21, 42, 63, 77, 102, 127};

/// Parallel Fibonacci behind flaky/2, whose first clause fails for
/// multiples of 3, so both goals of main/1 fail once and retry.
/// `main(F).` gives F = fib(12) + fib(9) = 178.
inline constexpr const char* kFlakyFibProgram = R"PL(
    fib(0, 0).
    fib(1, 1).
    fib(N, F) :-
        N > 1, N1 is N - 1, N2 is N - 2,
        (fib(N1, F1) & fib(N2, F2)),
        F is F1 + F2.
    flaky(N, F) :- N mod 3 =:= 0, fail.
    flaky(N, F) :- fib(N, F).
    main(F) :- flaky(12, A) & flaky(9, B), F is A + B.
  )PL";

/// A full binary tree of nested parcalls. `tree(10, S).` gives S = 1024.
inline constexpr const char* kTreeProgram = R"PL(
    tree(0, 1).
    tree(N, S) :-
        N > 0, N1 is N - 1,
        (tree(N1, A) & tree(N1, B)),
        S is A + B.
  )PL";

}  // namespace rapwam
