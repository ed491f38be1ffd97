// Resource-governance suite (DESIGN.md §14): heap / local / step
// budgets must trip with a structured ResourceExhaustedError naming
// the budget, the unwind must be clean — a machine that just tripped a
// budget (or was deadline-cancelled) re-runs a real query bit-identical
// to a fresh machine, packed trace stream included — and a governed
// run whose budgets never fire must be indistinguishable from an
// ungoverned one. Also pins the engine-side fault injection points
// (fail-Nth-heap-growth, cycle-loop stall) the server's slow-generation
// deadline tests build on.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "engine/machine.h"
#include "harness/programs.h"
#include "harness/runner.h"
#include "support/cancel.h"
#include "trace/chunks.h"

namespace rapwam {
namespace {

/// Runaway predicates appended to a benchmark source: unbounded heap
/// growth, an allocation-free spin loop, and deep non-tail recursion
/// (one environment per level) for the local stack.
constexpr const char* kRunaway =
    "\n"
    "grow__(L) :- grow__([x|L]).\n"
    "grow__start :- grow__([]).\n"
    "spin__ :- spin__.\n"
    "deep__(N) :- N > 0, M is N - 1, deep__(M), deep_sink__.\n"
    "deep_sink__.\n";

MachineConfig base_config(unsigned pes) {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.sizes = bench_area_sizes();
  cfg.max_solutions = 1;
  return cfg;
}

struct GovRun {
  RunResult result;
  std::vector<u64> packed;
};

GovRun solve_traced(Machine& m, const std::string& goal,
                    const CancelToken* cancel = nullptr) {
  ChunkingSink sink(/*busy_only=*/false);  // idle refs must match too
  GovRun out;
  out.result = m.solve(goal, &sink, cancel);
  out.packed = sink.take()->to_packed();
  return out;
}

void expect_runs_identical(const GovRun& a, const GovRun& b) {
  EXPECT_EQ(a.result.success, b.result.success);
  EXPECT_EQ(a.result.output, b.result.output);
  ASSERT_EQ(a.result.solutions.size(), b.result.solutions.size());
  for (std::size_t i = 0; i < a.result.solutions.size(); ++i)
    EXPECT_EQ(a.result.solutions[i].bindings, b.result.solutions[i].bindings);
  EXPECT_EQ(a.result.stats.instructions, b.result.stats.instructions);
  EXPECT_EQ(a.result.stats.cycles, b.result.stats.cycles);
  EXPECT_EQ(a.result.stats.calls, b.result.stats.calls);
  EXPECT_EQ(a.result.stats.refs.total, b.result.stats.refs.total);
  EXPECT_EQ(a.result.stats.refs.writes, b.result.stats.refs.writes);
  EXPECT_EQ(a.result.stats.refs.busy, b.result.stats.refs.busy);
  EXPECT_EQ(a.result.stats.solutions, b.result.stats.solutions);
  EXPECT_EQ(a.result.stats.high_water, b.result.stats.high_water);
  ASSERT_EQ(a.packed.size(), b.packed.size());
  EXPECT_EQ(a.packed, b.packed);
}

/// Runs `goal` expecting ResourceExhaustedError on budget `resource`.
void expect_budget_trip(Machine& m, const std::string& goal,
                        const std::string& resource) {
  try {
    m.solve(goal);
    FAIL() << "expected the '" << resource << "' budget to trip";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.resource(), resource);
    EXPECT_EQ(std::string(e.what()).rfind("resource_exhausted: ", 0), 0u)
        << e.what();
  }
}

TEST(EngineLimits, HeapBudgetTripsWithStructuredError) {
  Program prog;
  prog.consult(bench_program("qsort", BenchScale::Small).source + kRunaway);
  MachineConfig cfg = base_config(1);
  cfg.limits.max_heap_words = u64(1) << 14;
  Machine m(prog, cfg);
  expect_budget_trip(m, "grow__start.", "heap");
}

TEST(EngineLimits, StepBudgetTripsWithStructuredError) {
  Program prog;
  prog.consult(bench_program("qsort", BenchScale::Small).source + kRunaway);
  MachineConfig cfg = base_config(1);
  cfg.limits.max_steps = 50'000;
  Machine m(prog, cfg);
  try {
    m.solve("spin__.");
    FAIL() << "expected the step budget to trip";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.resource(), "steps");
    EXPECT_NE(std::string(e.what()).find("max_steps=50000"), std::string::npos)
        << e.what();
  }
}

TEST(EngineLimits, LocalBudgetTripsWithStructuredError) {
  Program prog;
  prog.consult(bench_program("qsort", BenchScale::Small).source + kRunaway);
  MachineConfig cfg = base_config(1);
  cfg.strip_cge = true;  // keep the runaway recursion purely sequential
  cfg.limits.max_local_words = 4096;
  Machine m(prog, cfg);
  expect_budget_trip(m, "deep__(100000000).", "local");
}

TEST(EngineLimits, ExhaustedMachineRerunsBitIdenticalToFresh) {
  // The clean-unwind contract: trip a budget, then run the real
  // benchmark on the same machine — trace stream, stats, solutions all
  // bit-identical to a fresh, ungoverned machine. All four paper
  // benchmarks, single PE.
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    SCOPED_TRACE(name);
    BenchProgram bp = bench_program(name, BenchScale::Small);
    std::string src = bp.source + kRunaway;

    Program gov_prog;
    gov_prog.consult(src);
    MachineConfig gov_cfg = base_config(1);
    gov_cfg.limits.max_heap_words = u64(1) << 18;  // runaway trips, bench fits
    Machine governed(gov_prog, gov_cfg);
    expect_budget_trip(governed, "grow__start.", "heap");
    GovRun after_trip = solve_traced(governed, bp.goal + ".");
    ASSERT_TRUE(after_trip.result.success);

    Program fresh_prog;
    fresh_prog.consult(src);
    Machine fresh(fresh_prog, base_config(1));
    GovRun baseline = solve_traced(fresh, bp.goal + ".");
    expect_runs_identical(after_trip, baseline);
  }
}

TEST(EngineLimits, ExhaustedMultiPeMachineRerunsBitIdentical) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  std::string src = bp.source + kRunaway;
  Program gov_prog;
  gov_prog.consult(src);
  MachineConfig gov_cfg = base_config(4);
  gov_cfg.limits.max_heap_words = u64(1) << 18;
  Machine governed(gov_prog, gov_cfg);
  expect_budget_trip(governed, "grow__start.", "heap");
  GovRun after_trip = solve_traced(governed, bp.goal + ".");
  ASSERT_TRUE(after_trip.result.success);

  Program fresh_prog;
  fresh_prog.consult(src);
  Machine fresh(fresh_prog, base_config(4));
  expect_runs_identical(after_trip, solve_traced(fresh, bp.goal + "."));
}

TEST(EngineLimits, GovernedButUntrippedRunIsBitIdentical) {
  // Generous budgets plus a live (never-firing) cancel token must be
  // unobservable: same trace, same stats as an ungoverned run with a
  // null token — the acceptance bar for the whole governance layer.
  for (const char* name : {"qsort", "deriv", "matrix", "tak"}) {
    SCOPED_TRACE(name);
    BenchProgram bp = bench_program(name, BenchScale::Small);
    Program p1, p2;
    p1.consult(bp.source);
    p2.consult(bp.source);

    MachineConfig governed_cfg = base_config(1);
    governed_cfg.limits.max_heap_words = bench_area_sizes().heap;
    governed_cfg.limits.max_steps = u64(1) << 40;
    Machine governed(p1, governed_cfg);
    CancelToken token;  // no deadline, never cancelled
    GovRun gov = solve_traced(governed, bp.goal + ".", &token);

    Machine plain(p2, base_config(1));
    expect_runs_identical(gov, solve_traced(plain, bp.goal + "."));
  }
}

TEST(EngineLimits, DeadlineCancelsMidRunAndMachineStaysReusable) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  Program prog;
  prog.consult(bp.source + kRunaway);
  MachineConfig cfg = base_config(1);
  // Stall the cycle loop so a short deadline reliably lands inside the
  // run (the checkpoint cadence is every 1024 cycles).
  cfg.faults.stall_every_cycles = 256;
  cfg.faults.stall_ms = 5;
  Machine m(prog, cfg);

  auto t0 = std::chrono::steady_clock::now();
  CancelToken token = CancelToken::with_deadline(std::chrono::milliseconds(50));
  try {
    m.solve("spin__.", nullptr, &token);
    FAIL() << "expected the deadline to cancel the run";
  } catch (const CancelledError& e) {
    EXPECT_TRUE(e.deadline_exceeded()) << e.what();
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "cancellation was not prompt";

  // Same machine, faults still armed but no token: the real query must
  // still succeed (stalls slow it down; they do not change results).
  RunResult r = m.solve(bp.goal + ".");
  EXPECT_TRUE(r.success);
}

// Two cyclic terms unified with each other: each PDL pop re-pushes the
// same pair, so the PDL never overflows and the loop never leaves one
// instruction. The unification itself must check the deadline and the
// budgets; each of these tests finishes well within 2 s.
constexpr const char* kCyclicUnify = "X = f(X), Y = f(Y), X = Y.";

long long elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(EngineLimits, DeadlineStopsCyclicUnification) {
  Program prog;
  prog.consult("t.");
  Machine m(prog, base_config(1));
  auto t0 = std::chrono::steady_clock::now();
  CancelToken token = CancelToken::with_deadline(std::chrono::milliseconds(100));
  try {
    m.solve(kCyclicUnify, nullptr, &token);
    FAIL() << "expected the deadline to cancel the unification";
  } catch (const CancelledError& e) {
    EXPECT_TRUE(e.deadline_exceeded()) << e.what();
  }
  EXPECT_LT(elapsed_ms(t0), 2000) << "cancellation was not prompt";
  EXPECT_TRUE(m.solve("X = f(a), X = f(Y).").success);  // still reusable
}

TEST(EngineLimits, StepBudgetStopsCyclicUnification) {
  Program prog;
  prog.consult("t.");
  MachineConfig cfg = base_config(1);
  cfg.limits.max_steps = 1000;
  Machine m(prog, cfg);
  auto t0 = std::chrono::steady_clock::now();
  expect_budget_trip(m, kCyclicUnify, "steps");
  EXPECT_LT(elapsed_ms(t0), 2000);
}

TEST(EngineLimits, CycleWatchdogStopsCyclicUnification) {
  Program prog;
  prog.consult("t.");
  MachineConfig cfg = base_config(1);
  cfg.max_cycles = 1000;
  Machine m(prog, cfg);
  auto t0 = std::chrono::steady_clock::now();
  try {
    m.solve(kCyclicUnify);
    FAIL() << "expected the cycle watchdog to fire";
  } catch (const ResourceExhaustedError& e) {
    FAIL() << "the watchdog is not a resource budget: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle watchdog exceeded (1000)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(elapsed_ms(t0), 2000);
}

// The other term walks on cyclic terms: each runs inside one
// instruction and never ends on its own, so each must stop at its walk
// checkpoint — on a deadline, on max_steps and on max_cycles — with the
// structured error of each, within 2 s.

void expect_watchdog(Machine& m, const std::string& goal) {
  try {
    m.solve(goal);
    FAIL() << "expected the cycle watchdog to fire";
  } catch (const ResourceExhaustedError& e) {
    FAIL() << "the watchdog is not a resource budget: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle watchdog exceeded (1000)"),
              std::string::npos)
        << e.what();
  }
}

/// `goal` under a 200 ms deadline, with max_steps = 1000 and with
/// max_cycles = 1000. `deadline` false: the walk stops sooner on its own
/// (copy_term/2 fills the heap), so that run expects the heap budget.
void expect_walk_stops(const std::string& goal, bool deadline = true) {
  Program prog;
  prog.consult("t.");
  auto t0 = std::chrono::steady_clock::now();
  {
    Machine m(prog, base_config(1));
    if (deadline) {
      CancelToken token = CancelToken::with_deadline(std::chrono::milliseconds(200));
      try {
        m.solve(goal, nullptr, &token);
        FAIL() << "expected the deadline to cancel the walk";
      } catch (const CancelledError& e) {
        EXPECT_TRUE(e.deadline_exceeded()) << e.what();
      }
    } else {
      expect_budget_trip(m, goal, "heap");
    }
    EXPECT_TRUE(m.solve("X = f(a), X = f(Y).").success);  // still reusable
  }
  MachineConfig steps = base_config(1);
  steps.limits.max_steps = 1000;
  Machine budgeted(prog, steps);
  expect_budget_trip(budgeted, goal, "steps");
  MachineConfig cycles = base_config(1);
  cycles.max_cycles = 1000;
  Machine watched(prog, cycles);
  expect_watchdog(watched, goal);
  EXPECT_LT(elapsed_ms(t0), 2000) << "the walk did not stop promptly";
}

TEST(EngineLimits, GroundStopsOnCyclicTerm) {
  expect_walk_stops("X = f(X), ground(X).");
}

TEST(EngineLimits, IndepStopsOnCyclicTerm) {
  expect_walk_stops("X = f(X, Z), indep(X, Z).");
}

TEST(EngineLimits, StructEqStopsOnCyclicTerms) {
  expect_walk_stops("X = f(X), Y = f(Y), X == Y.");
}

TEST(EngineLimits, CompareStopsOnCyclicTerms) {
  expect_walk_stops("X = f(X), Y = f(Y), compare(O, X, Y).");
}

TEST(EngineLimits, CopyTermStopsOnCyclicTerm) {
  expect_walk_stops("X = f(X), copy_term(X, Y).", /*deadline=*/false);
}

TEST(EngineLimits, DeepListsWalkWithoutRecursion) {
  // A 100,000-element list: the recursive compare/3 and copy_term/2
  // overflowed the C++ stack on it.
  Program prog;
  prog.consult(
      "mk(0, []) :- !.\n"
      "mk(N, [N|T]) :- M is N - 1, mk(M, T).\n"
      "deep(O) :- mk(100000, L), copy_term(L, C), L == C, compare(O, L, C).\n"
      "deeper(O) :- mk(100000, L), mk(99999, K), compare(O, L, [100000|K]).\n");
  Machine m(prog, base_config(1));
  auto t0 = std::chrono::steady_clock::now();
  RunResult r = m.solve("deep(O), deeper(P).");
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.solutions.size(), 1u);
  EXPECT_EQ(r.solutions[0].bindings,
            (std::vector<std::pair<std::string, std::string>>{{"O", "="}, {"P", "="}}));
  EXPECT_LT(elapsed_ms(t0), 2000);
}

TEST(EngineLimits, ExplicitCancelIsDistinguishedFromDeadline) {
  Program prog;
  prog.consult(bench_program("qsort", BenchScale::Small).source + kRunaway);
  Machine m(prog, base_config(1));
  CancelToken token;
  token.cancel();  // cancelled before the run even starts
  try {
    m.solve("spin__.", nullptr, &token);
    FAIL() << "expected the cancelled token to abort the run";
  } catch (const CancelledError& e) {
    EXPECT_FALSE(e.deadline_exceeded()) << e.what();
  }
}

TEST(EngineLimits, InjectedHeapGrowthFaultFiresOnNthPush) {
  BenchProgram bp = bench_program("qsort", BenchScale::Small);
  Program prog;
  prog.consult(bp.source);
  MachineConfig cfg = base_config(1);
  cfg.faults.fail_heap_growth_n = 1;
  Machine m(prog, cfg);
  try {
    m.solve(bp.goal + ".");
    FAIL() << "expected the injected heap-growth fault to fire";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.resource(), "heap");
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos)
        << e.what();
  }
}

TEST(EngineLimits, RunIntoThreadsLimitsAndFaults) {
  // The harness entry point the trace library / server use must honor
  // the same governance knobs as a hand-built machine.
  BenchProgram bp = bench_program("deriv", BenchScale::Small);
  ResourceLimits limits;
  limits.max_steps = 10;  // far below any real benchmark
  EXPECT_THROW(run_into(bp, 1, false, nullptr, 1, limits),
               ResourceExhaustedError);

  EngineFaults faults;
  faults.fail_heap_growth_n = 1;
  EXPECT_THROW(run_into(bp, 1, false, nullptr, 1, ResourceLimits{}, faults),
               ResourceExhaustedError);
}

TEST(EngineLimits, ArenaThatCannotBeMappedIsAStructuredError) {
  // Each solve maps its simulated memory. An arena past every user
  // address space (2^46 heap words, 512 TiB) fails with a structured
  // error, and the process goes on solving with a sane layout.
  Program prog;
  prog.consult("p.");
  MachineConfig cfg;
  cfg.sizes.heap = u64(1) << 46;
  Machine huge(prog, cfg);
  try {
    huge.solve("p.");
    FAIL() << "expected the arena mapping to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("simulated memory allocation failed"),
              std::string::npos)
        << e.what();
  }
  Machine sane(prog, MachineConfig{});
  EXPECT_TRUE(sane.solve("p.").success);
}

}  // namespace
}  // namespace rapwam
